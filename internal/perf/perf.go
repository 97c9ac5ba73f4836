// Package perf is the repo's benchmark-regression suite: it times the
// simulation workloads with a controllable measurement budget, emits a
// deterministic-schema JSON report (tmsim-bench/v1, written through
// obs.WriteReport), and compares a fresh report against a baseline
// report with a tolerance gate.
//
// Paper: §5 (evaluation methodology) — this package times the repo's
// reproduction of that evaluation (the Figure 5 sweep) in wall-clock
// terms, so the simulator itself stays fast enough to iterate on.
//
// The schema is versioned (Schema) and entries are sorted by name, so
// reports diff cleanly and CI can parse them without guessing. Two kinds
// of numbers appear side by side:
//
//   - wall-clock metrics (NsPerOp, AllocsPerOp, BytesPerOp,
//     SimCyclesPerSec) depend on the hardware that ran the suite;
//   - SimCyclesPerOp is the simulated-cycle cost of one operation, which
//     is bit-identical on every machine because the simulator is
//     deterministic.
//
// The CI gate times the base commit and the change on one runner and
// compares NsPerOp with a generous tolerance; SimCyclesPerOp changing at
// all means the simulated behavior changed and should be explained by
// the commit. See EXPERIMENTS.md ("Benchmark suite and regression
// gate").
package perf

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// Schema identifies the report format.
const Schema = "tmsim-bench/v1"

// Entry is one benchmark measurement.
type Entry struct {
	Name            string  `json:"name"`
	Iterations      int     `json:"iterations"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	BytesPerOp      float64 `json:"bytes_per_op"`
	SimCyclesPerOp  float64 `json:"sim_cycles_per_op"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
}

// Report is the on-disk benchmark artifact.
type Report struct {
	Schema    string  `json:"schema"`
	Date      string  `json:"date"` // YYYY-MM-DD, day the report was taken
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	Entries   []Entry `json:"entries"`
}

// NewReport stamps an empty report with the environment.
func NewReport(date string) *Report {
	return &Report{
		Schema:    Schema,
		Date:      date,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
}

// Add appends an entry, keeping Entries sorted by name.
func (r *Report) Add(e Entry) {
	r.Entries = append(r.Entries, e)
	sort.Slice(r.Entries, func(i, j int) bool { return r.Entries[i].Name < r.Entries[j].Name })
}

// Lookup returns the entry with the given name.
func (r *Report) Lookup(name string) (Entry, bool) {
	for _, e := range r.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// WriteFile writes the report as indented JSON (obs.WriteReport).
func (r *Report) WriteFile(path string) error {
	var buf bytes.Buffer
	if err := obs.WriteReport(&buf, r); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ReadFile loads a report and validates its schema tag.
func ReadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r Report
	if err := obs.ReadReport(f, Schema, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Bench is one benchmark: Op runs a single operation and returns how many
// simulated cycles it executed (0 for benchmarks without a simulated
// component).
type Bench struct {
	Name string
	Op   func() uint64
}

// Measure times b until at least benchtime has elapsed (always at least
// one iteration), returning the per-op averages. Allocation figures come
// from the runtime's global counters, so run measurements sequentially.
func Measure(b Bench, benchtime time.Duration) Entry {
	b.Op() // warm-up: page in code and steady-state pools
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var (
		iters  int
		cycles uint64
	)
	start := time.Now()
	for {
		cycles += b.Op()
		iters++
		if time.Since(start) >= benchtime {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	sec := elapsed.Seconds()
	e := Entry{
		Name:           b.Name,
		Iterations:     iters,
		NsPerOp:        float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp:    float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:     float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		SimCyclesPerOp: float64(cycles) / float64(iters),
	}
	if sec > 0 {
		e.SimCyclesPerSec = float64(cycles) / sec
	}
	return e
}

// RunSuite measures every benchmark sequentially into a report, invoking
// progress (if non-nil) before each measurement.
func RunSuite(benches []Bench, benchtime time.Duration, date string, progress func(name string)) *Report {
	r := NewReport(date)
	for _, b := range benches {
		if progress != nil {
			progress(b.Name)
		}
		r.Add(Measure(b, benchtime))
	}
	return r
}
