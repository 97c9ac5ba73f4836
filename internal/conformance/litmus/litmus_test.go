package litmus

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		p    Program
	}{
		{"no vars", Program{Name: "x", Vars: 0, Threads: []Thread{T("a", NT(R(0)))}}},
		{"too many vars", Program{Name: "x", Vars: 5, Threads: []Thread{T("a", NT(R(0)))}}},
		{"no threads", Program{Name: "x", Vars: 1}},
		{"empty thread", Program{Name: "x", Vars: 1, Threads: []Thread{{Name: "a"}}}},
		{"empty step", Program{Name: "x", Vars: 1, Threads: []Thread{{Name: "a", Steps: []Step{{Tx: true}}}}}},
		{"multi-op nt step", Program{Name: "x", Vars: 1, Threads: []Thread{{Name: "a", Steps: []Step{{Ops: []Op{R(0), R(0)}}}}}}},
		{"var out of range", Program{Name: "x", Vars: 1, Threads: []Thread{T("a", NT(R(1)))}}},
	}
	for _, tc := range cases {
		if err := tc.p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a malformed program", tc.name)
		}
	}
	for _, p := range Curated() {
		if err := p.Validate(); err != nil {
			t.Errorf("curated %s: %v", p.Name, err)
		}
	}
}

func TestStateKeyAndCond(t *testing.T) {
	s := State{Mem: []uint64{1, 0}, Regs: [][]uint64{{2}, {0, 7}}}
	if got, want := s.Key(), "x=1 y=0 t0:r0=2 t1:r0=0 t1:r1=7"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	if !(Cond{"x": 1, "t1:r1": 7}).Matches(s) {
		t.Error("matching cond rejected")
	}
	if (Cond{"x": 0}).Matches(s) {
		t.Error("wrong value matched")
	}
	if (Cond{"nosuch": 0}).Matches(s) {
		t.Error("unknown observable matched")
	}
	if got, want := (Cond{"y": 2, "x": 1}).Key(), "x=1 y=2"; got != want {
		t.Fatalf("Cond.Key() = %q, want %q", got, want)
	}
}

// TestOracleSB pins the oracle on the fully-transactional store-buffering
// shape: two serializable orders, and never both loads zero.
func TestOracleSB(t *testing.T) {
	var sb *Program
	for _, p := range Curated() {
		if p.Name == "sb-tx" {
			sb = p
		}
	}
	oracle := Oracle(sb)
	want := []string{
		"x=1 y=1 t0:r0=0 t1:r0=1",
		"x=1 y=1 t0:r0=1 t1:r0=0",
	}
	if got := oracle.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("oracle = %v, want %v", got, want)
	}
}

// TestOracleFenceIsNoOp: the fence variant of store buffering has the
// same oracle as the plain one (SC machine, fences schedulable no-ops).
func TestOracleFenceIsNoOp(t *testing.T) {
	byName := map[string]*Program{}
	for _, p := range Curated() {
		byName[p.Name] = p
	}
	plain := Oracle(byName["sb-nt"]).Keys()
	fenced := Oracle(byName["sb-nt-fence"]).Keys()
	if !reflect.DeepEqual(plain, fenced) {
		t.Fatalf("fenced oracle %v differs from plain %v", fenced, plain)
	}
}

// TestForbiddenOutsideOracle: every curated Forbidden condition must be
// unreachable under strong atomicity — matching no oracle state. A
// condition that matched would make the whole verdict table vacuous.
func TestForbiddenOutsideOracle(t *testing.T) {
	for _, p := range Curated() {
		oracle := Oracle(p)
		for _, cond := range p.Expect.Forbidden {
			for _, key := range oracle.Keys() {
				st, _ := oracle.Get(key)
				if cond.Matches(st) {
					t.Errorf("%s: forbidden %q matches oracle state %q", p.Name, cond.Key(), key)
				}
			}
		}
	}
}

// TestEnumOrders checks exhaustive enumeration, the cap, and sampling
// determinism.
func TestEnumOrders(t *testing.T) {
	orders, total := EnumOrders([]int{2, 2}, 0, 1)
	if total != 6 || len(orders) != 6 {
		t.Fatalf("got %d orders (total %d), want 6", len(orders), total)
	}
	for _, o := range orders {
		n0, n1 := 0, 0
		for _, ti := range o {
			if ti == 0 {
				n0++
			} else {
				n1++
			}
		}
		if n0 != 2 || n1 != 2 {
			t.Fatalf("order %v is not a multiset permutation of {0,0,1,1}", o)
		}
	}
	capped, total := EnumOrders([]int{3, 3, 3}, 16, 42)
	if total <= 16 || len(capped) != 16 {
		t.Fatalf("cap: got %d orders (total %d)", len(capped), total)
	}
	again, _ := EnumOrders([]int{3, 3, 3}, 16, 42)
	if !reflect.DeepEqual(capped, again) {
		t.Fatal("sampled orders differ across identical calls")
	}
}

// TestExecuteDeterministic: one (system, program, schedule) triple is a
// pure function — byte-identical state and histories across replays.
func TestExecuteDeterministic(t *testing.T) {
	p := Curated()[3] // mp-nt-witness
	orders, _ := EnumOrders(p.OpCounts(), 0, 1)
	for _, sys := range Systems() {
		for _, order := range orders[:2] {
			sch := Schedule{Order: order, Gap: 130}
			a := Execute(sys, p, sch)
			b := Execute(sys, p, sch)
			if a.Err != nil || b.Err != nil {
				t.Fatalf("%s: run errors %v / %v", sys, a.Err, b.Err)
			}
			if a.State.Key() != b.State.Key() {
				t.Fatalf("%s: state %q != %q across replays", sys, a.State.Key(), b.State.Key())
			}
			if !reflect.DeepEqual(a.Committed, b.Committed) || !reflect.DeepEqual(a.NT, b.NT) {
				t.Fatalf("%s: histories differ across replays", sys)
			}
		}
	}
}

// TestCuratedSuite is the conformance gate: the full curated suite on
// every system (the whole harness matrix plus sle), with the CI-sized
// schedule space. Any class-check violation or witness-expectation
// mismatch — a strong system escaping the oracle, a weak system's
// documented anomaly disappearing or a new one appearing — fails here.
func TestCuratedSuite(t *testing.T) {
	cfg := SmallConfig()
	cfg.Enums = nil
	rep := Run(cfg)
	for _, f := range rep.Failures {
		t.Error(f)
	}
	// The expected strong/weak split, stated positively: these witnesses
	// must be present (Run already checks exact per-program match).
	wantWitness := map[string][]string{ // sorted
		"mp-nt-witness":      {"global-lock", "ustm"},
		"mp-writeback":       {"global-lock", "tl2", "ustm"},
		"intermediate-value": {"global-lock", "ustm"},
	}
	for _, pr := range rep.Programs {
		var got []string
		for _, v := range pr.Systems {
			if len(v.Witnessed) > 0 {
				got = append(got, v.System)
			}
			if ClassOf(v.System) == ClassStrong && len(v.Extras) > 0 {
				t.Errorf("%s: strong system %s escaped the oracle: %v", pr.Name, v.System, v.Extras)
			}
		}
		sort.Strings(got)
		want := wantWitness[pr.Name]
		if len(got) != len(want) {
			t.Errorf("%s: witnessing systems %v, want %v", pr.Name, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: witnessing systems %v, want %v", pr.Name, got, want)
			}
		}
	}
}

// TestEnumerate pins the enumerator's determinism and filters.
func TestEnumerate(t *testing.T) {
	cfg := EnumConfig{Threads: 2, Vars: 2, MaxTxOps: 1, MaxNTOps: 1, Seed: 3}
	a := Enumerate(cfg)
	b := Enumerate(cfg)
	if a.Total == 0 {
		t.Fatal("enumeration is empty")
	}
	if len(a.Programs) != len(b.Programs) {
		t.Fatalf("non-deterministic: %d vs %d programs", len(a.Programs), len(b.Programs))
	}
	seen := map[string]bool{}
	for i, p := range a.Programs {
		if p.Name != b.Programs[i].Name {
			t.Fatalf("program %d named %q vs %q across runs", i, p.Name, b.Programs[i].Name)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if seen[p.Doc] {
			t.Fatalf("duplicate shape %q", p.Doc)
		}
		seen[p.Doc] = true
		txs, reads, writes := 0, 0, 0
		for _, th := range p.Threads {
			for _, st := range th.Steps {
				if st.Tx {
					txs++
				}
				for _, op := range st.Ops {
					switch op.Kind {
					case OpRead:
						reads++
					case OpWrite:
						writes++
					}
				}
			}
		}
		if txs == 0 || reads == 0 || writes == 0 {
			t.Fatalf("%s: uninteresting program survived the filter (tx=%d r=%d w=%d)", p.Name, txs, reads, writes)
		}
	}
	// The cap drops deterministically and reports the drop.
	capped := Enumerate(EnumConfig{Threads: 2, Vars: 2, MaxTxOps: 1, MaxNTOps: 1, MaxPrograms: 5, Seed: 3})
	if len(capped.Programs) != 5 || capped.Dropped != capped.Total-5 {
		t.Fatalf("cap: kept %d dropped %d of %d", len(capped.Programs), capped.Dropped, capped.Total)
	}
}

// TestReportDeterminism: the JSON report is byte-identical across runs
// and across worker counts (the acceptance criterion for the sweep's
// reproducibility).
func TestReportDeterminism(t *testing.T) {
	cfg := SmallConfig()
	cfg.Enums = []EnumConfig{{Threads: 2, Vars: 2, MaxTxOps: 1, MaxNTOps: 1, MaxPrograms: 4, Seed: 7}}
	render := func(workers int) []byte {
		c := cfg
		c.Workers = workers
		var b bytes.Buffer
		if err := Run(c).WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	one := render(1)
	eight := render(8)
	if !bytes.Equal(one, eight) {
		t.Fatal("report JSON differs between 1 and 8 workers")
	}
	if !bytes.Equal(one, render(1)) {
		t.Fatal("report JSON differs across identical runs")
	}
}

// TestClassOf pins the class table against the live system list.
func TestClassOf(t *testing.T) {
	want := map[string]Class{
		"sequential":    ClassStrong,
		"global-lock":   ClassWeak,
		"unbounded-htm": ClassStrong,
		"ufo-hybrid":    ClassStrong,
		"hytm":          ClassWeak,
		"phtm":          ClassStrong,
		"ustm":          ClassWeak,
		"ustm+ufo":      ClassStrong,
		"tl2":           ClassSerializable,
		"hybrid-norec":  ClassSerializable,
		"sle":           ClassWeak,
	}
	systems := Systems()
	if len(systems) != len(want) {
		t.Fatalf("Systems() lists %d systems, class table has %d — update both", len(systems), len(want))
	}
	for _, sys := range systems {
		w, ok := want[sys]
		if !ok {
			t.Errorf("system %s missing from class expectations", sys)
			continue
		}
		if got := ClassOf(sys); got != w {
			t.Errorf("ClassOf(%s) = %s, want %s", sys, got, w)
		}
	}
	if ClassOf("some-future-system") != ClassWeak {
		t.Error("unknown systems must default to the weakest class")
	}
}

// TestSweepSequentialBaseline: the sequential executor runs threads back
// to back on one processor, so it observes exactly one outcome, and that
// outcome is in the oracle.
func TestSweepSequentialBaseline(t *testing.T) {
	for _, p := range Curated() {
		oracle := Oracle(p)
		orders, _ := EnumOrders(p.OpCounts(), 4, 1)
		sw := Sweep("sequential", p, oracle, orders, []uint64{0, 300})
		if sw.Observed.Len() != 1 {
			t.Errorf("%s: sequential observed %d states, want 1", p.Name, sw.Observed.Len())
		}
		if !sw.StrongOK {
			t.Errorf("%s: sequential escaped the oracle: %v", p.Name, sw.Extras)
		}
	}
}

func ExampleProgram() {
	p := &Program{
		Name: "example",
		Vars: 2,
		Threads: []Thread{
			T("writer", Atomic(W(0, 1), W(1, 1))),
			T("reader", NT(R(1)), NT(R(0))),
		},
	}
	fmt.Println(Oracle(p).Keys())
	// Output:
	// [x=1 y=1 t1:r0=0 t1:r1=0 x=1 y=1 t1:r0=0 t1:r1=1 x=1 y=1 t1:r0=1 t1:r1=1]
}
