package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// These tests pin the run-ahead fast path (DESIGN.md §12) to the
// retained reference scheduler (Config.Reference): both must produce
// exactly the same step sequence — the interleaving of (processor, clock)
// pairs across every scheduling point — on the same script.

type step struct {
	id  int
	now uint64
}

// schedConfigs enumerates the scheduler implementations under test on top
// of base. The reference scheduler is the executable specification.
func schedConfigs(base Config) map[string]Config {
	ref := base
	ref.Reference = true
	return map[string]Config{
		"fast":      base,
		"reference": ref,
	}
}

func diffTraces(t *testing.T, got, ref []step, label string) {
	t.Helper()
	n := len(got)
	if len(ref) < n {
		n = len(ref)
	}
	for i := 0; i < n; i++ {
		if got[i] != ref[i] {
			t.Fatalf("%s: schedules diverge at step %d: got %+v, reference %+v", label, i, got[i], ref[i])
		}
	}
	if len(got) != len(ref) {
		t.Fatalf("%s: schedule lengths differ: got %d, reference %d", label, len(got), len(ref))
	}
}

// runFixedScript drives a handcrafted script through cfg's scheduler:
// clock ties (ID tie-break), zero-cycle elapses, a block/wake chain, and
// quantum-boundary crossings. It returns the step trace and the engine's
// final step count.
func runFixedScript(cfg Config) ([]step, uint64) {
	cfg.Procs, cfg.Quantum = 3, 64
	e := New(cfg)
	var trace []step
	at := func(p *Proc) { trace = append(trace, step{p.ID(), p.Now()}) }
	sleeper := e.Proc(2)
	e.Run([]func(*Proc){
		func(p *Proc) {
			at(p)
			p.Elapse(10) // tie with proc 1 at 10
			at(p)
			p.Elapse(0) // zero advance: tie-break must still hold
			at(p)
			p.Elapse(100) // crosses the quantum boundary at 64
			at(p)
			p.Wake(sleeper)
			p.Elapse(5)
			at(p)
		},
		func(p *Proc) {
			at(p)
			p.Elapse(10)
			at(p)
			p.Elapse(10)
			at(p)
			p.Elapse(200)
			at(p)
		},
		func(p *Proc) {
			at(p)
			p.Elapse(1)
			at(p)
			p.Block() // woken by proc 0 at cycle 110
			at(p)
			p.Elapse(3)
			at(p)
		},
	})
	return trace, e.Steps()
}

// TestScheduleTraceEquivalenceFixedScript runs the handcrafted script
// through every scheduler.
func TestScheduleTraceEquivalenceFixedScript(t *testing.T) {
	ref, _ := runFixedScript(Config{Reference: true})
	for name, cfg := range schedConfigs(Config{}) {
		got, _ := runFixedScript(cfg)
		diffTraces(t, got, ref, "fixed script/"+name)
	}
}

// TestScheduleTraceEquivalenceRandomScripts is the property test: seeded
// random Elapse/Block/Wake scripts must schedule identically under every
// implementation. Blocking is only chosen when another processor is
// neither done nor blocked (so someone can deliver the wakeup), and every
// finishing processor drains the sleeper list; all schedulers see the
// same shared state exactly because the schedules match — any divergence
// shows up as a trace mismatch.
func TestScheduleTraceEquivalenceRandomScripts(t *testing.T) {
	for _, procs := range []int{2, 3, 5, 8} {
		for _, quantum := range []uint64{0, 97} {
			for seed := uint64(1); seed <= 5; seed++ {
				base := fmt.Sprintf("procs=%d quantum=%d seed=%d", procs, quantum, seed)
				ref := runRandomScript(Config{Reference: true}, procs, quantum, seed)
				if len(ref) != procs*scriptOps {
					t.Fatalf("%s: trace has %d steps, want %d", base, len(ref), procs*scriptOps)
				}
				for name, cfg := range schedConfigs(Config{}) {
					got := runRandomScript(cfg, procs, quantum, seed)
					diffTraces(t, got, ref, base+"/"+name)
				}
			}
		}
	}
}

const scriptOps = 300

func runRandomScript(cfg Config, procs int, quantum, seed uint64) []step {
	cfg.Procs, cfg.Quantum = procs, quantum
	e := New(cfg)
	var trace []step
	var sleepers []*Proc
	active := procs // processors neither Done nor Blocked
	ws := make([]func(*Proc), procs)
	for i := 0; i < procs; i++ {
		r := NewRand(seed + uint64(i)*1_000_003)
		ws[i] = func(p *Proc) {
			for op := 0; op < scriptOps; op++ {
				trace = append(trace, step{p.ID(), p.Now()})
				switch k := r.Intn(10); {
				case k < 6:
					p.Elapse(uint64(r.Intn(50))) // includes 0: exercises ID tie-breaks
				case k < 8:
					if len(sleepers) > 0 {
						idx := r.Intn(len(sleepers))
						target := sleepers[idx]
						sleepers = append(sleepers[:idx], sleepers[idx+1:]...)
						active++
						p.Wake(target)
						p.Elapse(1)
					} else {
						p.Elapse(3)
					}
				default:
					if active > 1 {
						active--
						sleepers = append(sleepers, p)
						// A waker removes us from sleepers and restores
						// the active count before calling Wake.
						p.Block()
					} else {
						p.Elapse(7)
					}
				}
			}
			// Strand no one: the finishing processor wakes every sleeper.
			active--
			for len(sleepers) > 0 {
				target := sleepers[0]
				sleepers = sleepers[1:]
				active++
				p.Wake(target)
			}
		}
	}
	e.Run(ws)
	return trace
}

// edgeCase is a named two-processor script.
type edgeCase struct {
	name   string
	script func(e *Engine, at func(*Proc), trace *[]step) []func(*Proc)
}

// edgeCases are scripts whose critical event lands on a clock tie: equal
// clocks decided by ID, a wake delivered at the waker's current clock, a
// same-cycle shared write, and a long sleep.
var edgeCases = []edgeCase{
	{
		// Both processors reach cycle 10 and later cycle 21 together.
		name: "ties at equal clocks",
		script: func(e *Engine, at func(*Proc), trace *[]step) []func(*Proc) {
			return []func(*Proc){
				func(p *Proc) {
					at(p)
					p.Elapse(10)
					at(p)
					p.Elapse(11)
					at(p)
				},
				func(p *Proc) {
					at(p)
					p.Elapse(10)
					at(p)
					p.Elapse(11)
					at(p)
				},
			}
		},
	},
	{
		// The sleeper resumes at the waker's clock and must run after
		// the waker only if its ID says so.
		name: "wake at the waker clock",
		script: func(e *Engine, at func(*Proc), trace *[]step) []func(*Proc) {
			sleeper := e.Proc(1)
			return []func(*Proc){
				func(p *Proc) {
					at(p)
					p.Elapse(10)
					at(p)
					p.Wake(sleeper)
					p.Elapse(5)
					at(p)
				},
				func(p *Proc) {
					at(p)
					p.Block()
					at(p)
					p.Elapse(2)
					at(p)
				},
			}
		},
	},
	{
		// Proc 0 sets a flag at cycle 10 and proc 1 reads it at cycle
		// 10: the (cycle, id) order decides that the write comes first.
		name: "same-cycle shared write",
		script: func(e *Engine, at func(*Proc), trace *[]step) []func(*Proc) {
			var killed int
			return []func(*Proc){
				func(p *Proc) {
					p.Elapse(10)
					killed = 1
					at(p)
					p.Elapse(1)
				},
				func(p *Proc) {
					p.Elapse(10)
					*trace = append(*trace, step{100 + killed, p.Now()})
					at(p)
					p.Elapse(1)
				},
			}
		},
	},
	{
		// A processor sleeps while the other runs far ahead.
		name: "long sleep then wake",
		script: func(e *Engine, at func(*Proc), trace *[]step) []func(*Proc) {
			sleeper := e.Proc(1)
			return []func(*Proc){
				func(p *Proc) {
					at(p)
					p.Elapse(40)
					at(p)
					p.Wake(sleeper)
					p.Elapse(1)
					at(p)
				},
				func(p *Proc) {
					at(p)
					p.Block()
					at(p)
				},
			}
		},
	},
}

// runEdgeCase runs one edge-case script on two procs under cfg's
// scheduler and returns the step trace and the engine's final step count.
func runEdgeCase(cfg Config, c edgeCase) ([]step, uint64) {
	cfg.Procs = 2
	e := New(cfg)
	var trace []step
	at := func(p *Proc) { trace = append(trace, step{p.ID(), p.Now()}) }
	e.Run(c.script(e, at, &trace))
	return trace, e.Steps()
}

// TestScheduleTraceEquivalenceEdgeCases pins the fast path to the
// reference scheduler on the clock-tie edge cases.
func TestScheduleTraceEquivalenceEdgeCases(t *testing.T) {
	for _, c := range edgeCases {
		t.Run(c.name, func(t *testing.T) {
			got, _ := runEdgeCase(Config{}, c)
			ref, _ := runEdgeCase(Config{Reference: true}, c)
			diffTraces(t, got, ref, c.name)
		})
	}
}

// TestSchedulerFinalClocksMatch double-checks the cheap invariants beyond
// the step trace: final clocks agree across every scheduler.
func TestSchedulerFinalClocksMatch(t *testing.T) {
	run := func(cfg Config) []uint64 {
		cfg.Procs, cfg.Quantum = 4, 50
		e := New(cfg)
		ws := make([]func(*Proc), 4)
		for i := range ws {
			r := NewRand(uint64(i) + 42)
			ws[i] = func(p *Proc) {
				for n := 0; n < 500; n++ {
					p.Elapse(uint64(1 + r.Intn(9)))
				}
			}
		}
		e.Run(ws)
		clocks := make([]uint64, 4)
		for i, p := range e.Procs() {
			clocks[i] = p.Now()
		}
		return clocks
	}
	ref := run(Config{Reference: true})
	for name, cfg := range schedConfigs(Config{}) {
		got := run(cfg)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s: proc %d final clock: got %d, reference %d", name, i, got[i], ref[i])
			}
		}
	}
}

// TestTwoPanickingWorkloadsFirstWins is the regression test for panic
// capture: with two panicking workloads the engine must deterministically
// re-raise the panic of whichever processor panics first in schedule
// order, on every scheduler. Proc 1 reaches its panic at cycle 5 while
// proc 0 is still run-ahead at cycle 10, so "B" wins.
func TestTwoPanickingWorkloadsFirstWins(t *testing.T) {
	for name, cfg := range schedConfigs(Config{Procs: 2}) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != "B" {
					t.Fatalf("recovered %v, want the first-scheduled panic \"B\"", r)
				}
			}()
			e := New(cfg)
			e.Run([]func(*Proc){
				func(p *Proc) { p.Elapse(10); panic("A") },
				func(p *Proc) { p.Elapse(5); panic("B") },
			})
		})
	}
}

// TestPanicBeforeFirstElapse covers a workload that panics without ever
// reaching a scheduling point.
func TestPanicBeforeFirstElapse(t *testing.T) {
	for name, cfg := range schedConfigs(Config{Procs: 2}) {
		func() {
			defer func() {
				if r := recover(); r != "immediately" {
					t.Fatalf("%s: recovered %v", name, r)
				}
			}()
			e := New(cfg)
			e.Run([]func(*Proc){
				func(p *Proc) { panic("immediately") },
				func(p *Proc) { p.Elapse(1) },
			})
		}()
	}
}

// TestSchedulerDeadlockAndLivelock pins the diagnostic panics on every
// scheduler.
func TestSchedulerDeadlockAndLivelock(t *testing.T) {
	for name, cfg := range schedConfigs(Config{}) {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected deadlock panic", name)
				}
			}()
			c := cfg
			c.Procs = 2
			e := New(c)
			e.Run([]func(*Proc){func(p *Proc) { p.Block() }, func(p *Proc) { p.Block() }})
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected livelock panic", name)
				}
			}()
			c := cfg
			c.Procs, c.MaxSteps = 1, 100
			e := New(c)
			e.Run([]func(*Proc){func(p *Proc) {
				for {
					p.Elapse(1)
				}
			}})
		}()
	}
}

// TestLoneSpinnerTripsWatchdogOnFastPath: a single runnable processor
// never crosses the horizon, so the watchdog must still count (coarsely)
// on the inline path: one step for the first resume and one per 1024
// Elapse calls, tripping on step MaxSteps+1 inside the 102400th call.
func TestLoneSpinnerTripsWatchdogOnFastPath(t *testing.T) {
	e := New(Config{Procs: 1, MaxSteps: 100})
	var done int
	func() {
		defer func() {
			if r, _ := recover().(string); !strings.HasPrefix(r, "sim: step budget exhausted") {
				t.Fatalf("expected livelock panic from the inline watchdog, got %q", r)
			}
		}()
		e.Run([]func(*Proc){func(p *Proc) {
			for {
				p.Elapse(1)
				done++
			}
		}})
	}()
	if e.Steps() != 101 || done != 102399 {
		t.Fatalf("watchdog tripped at step %d after %d Elapse calls, want step 101 after 102399", e.Steps(), done)
	}
}

// TestStepCountsPinned pins Engine.Steps() exactly on the fixed scripts,
// on a deadlock and on a workload panic. The fast path counts the first
// resume and every yield or finish; the reference scheduler counts every
// resume. The numbers are the ones the engine produced when it handed
// the token over channels, before it ran procs as coroutines.
func TestStepCountsPinned(t *testing.T) {
	abnormal := func(cfg Config, ws ...func(*Proc)) uint64 {
		e := New(cfg)
		func() {
			defer func() { recover() }()
			e.Run(ws)
		}()
		return e.Steps()
	}
	want := map[string][2]uint64{ // {fast, reference}
		"fixed script":            {10, 13},
		"ties at equal clocks":    {7, 6},
		"wake at the waker clock": {6, 6},
		"same-cycle shared write": {7, 6},
		"long sleep then wake":    {6, 5},
		"deadlock":                {5, 4},
		"workload panic":          {2, 3},
	}
	got := map[string][2]uint64{}
	for i, reference := range []bool{false, true} {
		cfg := Config{Reference: reference}
		record := func(name string, steps uint64) {
			c := got[name]
			c[i] = steps
			got[name] = c
		}
		_, steps := runFixedScript(cfg)
		record("fixed script", steps)
		for _, c := range edgeCases {
			_, steps := runEdgeCase(cfg, c)
			record(c.name, steps)
		}
		cfg.Procs = 2
		record("deadlock", abnormal(cfg,
			func(p *Proc) { p.Elapse(3); p.Block() },
			func(p *Proc) { p.Elapse(5); p.Block() }))
		record("workload panic", abnormal(cfg,
			func(p *Proc) { p.Elapse(10); panic("A") },
			func(p *Proc) { p.Elapse(5); panic("B") }))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: steps (fast, reference) = %v, want %v", name, got[name], w)
		}
	}
}

// TestAbnormalRunsReleaseProcs: when a run ends in a deadlock, a
// step-budget panic or a workload panic, Run releases every processor
// still suspended. The goroutine count returns to its baseline, and no
// stranded workload runs past the scheduling point it was parked at,
// even through a deferred recover that re-panics foreign values the way
// tm.Catch does.
func TestAbnormalRunsReleaseProcs(t *testing.T) {
	var moved int
	stranded := func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				panic(r)
			}
		}()
		p.Elapse(1 << 40)
		moved++
		p.Block()
		moved++
	}
	spin := func(p *Proc) {
		for {
			p.Elapse(1)
		}
	}
	cases := []struct {
		name, panic string
		cfg         Config
		ws          []func(*Proc)
	}{
		{"deadlock", "sim: deadlock", Config{Procs: 4}, []func(*Proc){
			func(p *Proc) { p.Block(); moved++ },
			func(p *Proc) { p.Elapse(1); p.Block(); moved++ },
			func(p *Proc) { p.Elapse(2); p.Block(); moved++ },
			func(p *Proc) { p.Elapse(3); p.Block(); moved++ },
		}},
		{"lone spinner", "sim: step budget exhausted", Config{Procs: 4, MaxSteps: 50},
			[]func(*Proc){spin, stranded, stranded, stranded}},
		{"lockstep spinners", "sim: step budget exhausted", Config{Procs: 4, MaxSteps: 1000},
			[]func(*Proc){spin, spin, stranded, stranded}},
		{"workload panic", "boom", Config{Procs: 4}, []func(*Proc){
			func(p *Proc) { p.Elapse(5); panic("boom") },
			stranded, stranded, stranded,
		}},
	}
	base := runtime.NumGoroutine()
	for _, c := range cases {
		for name, cfg := range schedConfigs(c.cfg) {
			for i := 0; i < 10; i++ {
				func() {
					defer func() {
						if r, _ := recover().(string); !strings.HasPrefix(r, c.panic) {
							t.Fatalf("%s/%s: recovered %q, want a %q panic", c.name, name, r, c.panic)
						}
					}()
					New(cfg).Run(c.ws)
				}()
			}
			if moved != 0 {
				t.Fatalf("%s/%s: stranded workloads ran past their scheduling point %d times", c.name, name, moved)
			}
			if n := runtime.NumGoroutine(); n != base {
				t.Fatalf("%s/%s: %d goroutines after 10 runs, want the baseline %d", c.name, name, n, base)
			}
		}
	}
}

// TestReadyHeapOrdering unit-tests the indexed heap directly.
func TestReadyHeapOrdering(t *testing.T) {
	e := New(Config{Procs: 7})
	clocks := []uint64{9, 3, 3, 12, 0, 7, 3}
	for i, p := range e.procs {
		p.now = clocks[i]
		p.heapIdx = -1
	}
	e.ready = e.ready[:0]
	for _, p := range e.procs {
		e.heapPush(p)
	}
	for i, p := range e.ready {
		if p.heapIdx != i {
			t.Fatalf("heap index out of sync at %d: %d", i, p.heapIdx)
		}
	}
	wantOrder := []int{4, 1, 2, 6, 5, 0, 3} // by (clock, id)
	for _, want := range wantOrder {
		got := e.heapPop()
		if got == nil || got.id != want {
			t.Fatalf("heapPop = %v, want proc %d", got, want)
		}
		if got.heapIdx != -1 {
			t.Fatalf("popped proc %d keeps heap index %d", got.id, got.heapIdx)
		}
	}
	if e.heapPop() != nil {
		t.Fatal("heap should be empty")
	}
}
