package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// small returns a workload's job list at small scale.
func small(t *testing.T, name string, seed uint64) func() []harness.Job {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return func() []harness.Job { return w.jobs(seed, harness.ScaleSmall) }
}

func cycles(rs []harness.Result) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.Cycles
	}
	return out
}

// The layer map names every repro/internal package, and nothing else.
func TestLayerMapCoversInternal(t *testing.T) {
	seen := map[string]bool{}
	err := filepath.WalkDir("../internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, err := filepath.Rel("../internal", filepath.Dir(path))
		seen[filepath.ToSlash(rel)] = true
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range seen {
		if _, ok := layerOf[pkg]; !ok {
			t.Errorf("package repro/internal/%s has no layer in layerOf", pkg)
		}
	}
	for pkg := range layerOf {
		if !seen[pkg] {
			t.Errorf("layerOf names repro/internal/%s, which does not exist", pkg)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/machine.(*Proc).access"}, "machine"},
		{[]string{"repro/internal/conformance/litmus.run"}, "offpath"},
		{[]string{"repro/internal/nosuch.F"}, bucketUnmapped},
		{[]string{"sort.Slice", "repro/internal/cache.(*Directory).Others"}, "cache"},
		{[]string{"runtime.memmove", "repro/internal/mem.(*Memory).grow"}, "mem"},
		{[]string{"runtime.memmove", "runtime.growslice", "repro/internal/ustm.f"}, bucketGC},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2_fast64", "repro/internal/machine.f"}, bucketMaps},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm"}, bucketSched},
		{[]string{"runtime.morestack", "repro/internal/sim.f"}, bucketOther},
		{[]string{"main.run"}, bucketBench},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// Go runtime frames the fold cannot place, plus repro frames the layer
// map does not name, stay under 5% of every workload's samples.
func TestFoldLeavesLittleUnplaced(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's frames swamp the profile")
	}
	for _, w := range workloads {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			t.Skipf("cpu profile unavailable: %v", err)
		}
		runPasses(small(t, w.name, 1), true, 3*time.Second)
		pprof.StopCPUProfile()
		f, err := foldProfile(prof.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if f.total < 100 {
			t.Fatalf("%s: only %d samples", w.name, f.total)
		}
		if s := f.share(bucketOther, bucketUnmapped); s > 0.05 {
			t.Errorf("%s: go.other+unmapped = %.1f%% of %d samples; top: %v %v", w.name, 100*s, f.total,
				f.topLeaves(bucketOther, 5), f.topLeaves(bucketUnmapped, 5))
		}
	}
}

// The wrappers only observe: one small cell of each workload shape gives
// the same simulated results with and without them.
func TestWrappersOnlyObserve(t *testing.T) {
	pick := map[string]func(harness.Job) bool{
		"fig5-full": func(j harness.Job) bool {
			return j.Factory.Name == "vacation-high" && j.System == harness.UFOHybrid && j.Threads == 4
		},
		"oltp-sweep": func(j harness.Job) bool { return j.System == harness.USTMUFO },
		"scale-256":  func(j harness.Job) bool { return j.System == harness.TL2 },
	}
	for name, keep := range pick {
		var jobs []harness.Job
		for _, j := range small(t, name, 1)() {
			if keep(j) {
				jobs = append(jobs, j)
				break
			}
		}
		plain, err := harness.Serial().Execute(jobs)
		if err != nil {
			t.Fatal(err)
		}
		p := runPass(jobs, true)
		a, b := plain[0], p.results[0]
		if a.Cycles != b.Cycles || !reflect.DeepEqual(a.Machine, b.Machine) ||
			!reflect.DeepEqual(a.Metrics, b.Metrics) || a.Stats != b.Stats {
			t.Errorf("%s: the wrapped cell differs from the plain one", name)
		}
		if p.cells[0].threads[0].attempts == 0 {
			t.Errorf("%s: the wrapper counted no attempts", name)
		}
	}
}

// The benchmark's job lists are the sweeps tmsim runs: at seed 1 each
// cell's cycles equal the Runner's own sweep.
func TestJobsMatchRunnerSweeps(t *testing.T) {
	opt := harness.DefaultOptions()
	fig5, err := harness.Serial().Figure5(opt, harness.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for _, d := range fig5 {
		want = append(want, d.SeqCycles)
		for _, sys := range harness.Figure5Systems {
			for _, th := range harness.ThreadCounts(harness.ScaleSmall) {
				want = append(want, d.Cells[sys][th].Cycles)
			}
		}
	}
	checkCycles(t, "fig5-full", want)

	rep, err := harness.Serial().OLTP(opt, harness.ScaleSmall, harness.DefaultOLTPSweep())
	if err != nil {
		t.Fatal(err)
	}
	want = nil
	for _, pt := range rep.Points {
		want = append(want, pt.Cycles)
	}
	checkCycles(t, "oltp-sweep", want)

	sc, err := harness.Serial().ScaleSweep(opt, harness.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	want = []uint64{sc.SeqCycles}
	for _, sys := range harness.ScaleSystems {
		for _, p := range harness.ScaleProcCounts(harness.ScaleSmall) {
			want = append(want, sc.Cells[sys][p].Cycles)
		}
	}
	checkCycles(t, "scale-256", want)
}

func checkCycles(t *testing.T, name string, want []uint64) {
	t.Helper()
	got, err := harness.Serial().Execute(small(t, name, 1)())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cycles(got), want) {
		t.Errorf("%s: cycles %v, want the Runner's %v", name, cycles(got), want)
	}
}

// Passes that disagree on a simulated outcome are caught.
func TestDeterministicCatchesDivergence(t *testing.T) {
	jobs := small(t, "scale-256", 1)()[:1]
	a, b := runPass(jobs, false), runPass(jobs, true)
	if !deterministic([]pass{a, b, b}) {
		t.Fatal("identical passes judged divergent")
	}
	b.results[0].Cycles++
	if deterministic([]pass{a, b}) {
		t.Fatal("a changed cycle count went unnoticed")
	}
}

// A held-out seed runs clean and reaches the program: no cell fails and
// the simulated cycles move.
func TestHeldOutSeed(t *testing.T) {
	for _, w := range workloads {
		base := runPass(small(t, w.name, 1)(), false)
		held := runPass(small(t, w.name, 7)(), false)
		if n := held.failed(); n != 0 {
			t.Errorf("%s seed 7: %d cells failed", w.name, n)
		}
		if base.cycles() == held.cycles() {
			t.Errorf("%s: seed 7 gives the same %d cycles as seed 1", w.name, base.cycles())
		}
	}
}

// The wrapper's exact OLTP response percentiles and the txstats
// histogram's agree within its power-of-two bucket, a factor of 2. The
// cells are the full-scale sweep's first load point, one per system.
func TestExactPercentilesMatchTxstats(t *testing.T) {
	w, err := findWorkload("oltp-sweep")
	if err != nil {
		t.Fatal(err)
	}
	jobs := w.jobs(1, harness.ScaleFull)[:len(harness.OLTPSystems)]
	p := runPass(jobs, true)
	for i, c := range p.cells {
		var xs []uint64
		for _, th := range c.threads {
			xs = append(xs, th.response...)
		}
		sortU64(xs)
		hist := p.results[i].TxStats.ResponsePercentiles
		for _, q := range []struct {
			q    float64
			hist float64
		}{{0.5, hist.P50}, {0.99, hist.P99}} {
			ex := float64(exact(xs, q.q))
			r := q.hist / ex
			t.Logf("%s P%g over %d requests: exact %.0f, histogram %.0f (ratio %.3f)",
				c.job.System, 100*q.q, len(xs), ex, q.hist, r)
			if r < 0.5 || r > 2 {
				t.Errorf("%s P%g: histogram %.0f is not within 2x of exact %.0f", c.job.System, 100*q.q, q.hist, ex)
			}
		}
	}
}

// The result line carries exactly the metrics BENCHMARK.json declares,
// with its units: end-to-end untraced, per-layer traced.
func TestResultLineMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		var out bytes.Buffer
		if err := run(&out, "scale-256", 1, small(t, "scale-256", 1), time.Second, traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s: got %+v (present %v), want unit %s", traced, m.Name, got, ok, m.Unit)
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, BENCHMARK.json declares %d", traced, len(res.Metrics), len(want))
		}
	}
}
