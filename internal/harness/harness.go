// Package harness runs stamp workloads across TM systems and thread
// counts, checks their invariants, and formats the paper's evaluation
// artifacts: the Figure 5 speedup curves, the Figure 6 abort-reason
// breakdown, the Figure 7 software-failover microbenchmark, and the
// Figure 8 contention-policy sensitivity study.
//
// Paper: §5 (evaluation methodology and every figure therein).
package harness

import (
	"fmt"

	"repro/internal/cm"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/hytm"
	"repro/internal/machine"
	"repro/internal/norec"
	"repro/internal/obs"
	"repro/internal/phtm"
	"repro/internal/seq"
	"repro/internal/stamp"
	"repro/internal/tl2"
	"repro/internal/tm"
	"repro/internal/txstats"
	"repro/internal/unbounded"
	"repro/internal/ustm"
)

// SystemKind names a buildable TM configuration.
type SystemKind string

// The buildable systems.
const (
	Sequential   SystemKind = "sequential"
	GlobalLock   SystemKind = "global-lock"
	UnboundedHTM SystemKind = "unbounded-htm"
	UFOHybrid    SystemKind = "ufo-hybrid"
	HyTM         SystemKind = "hytm"
	PhTM         SystemKind = "phtm"
	USTM         SystemKind = "ustm"
	USTMUFO      SystemKind = "ustm+ufo"
	TL2          SystemKind = "tl2"
	HybridNOrec  SystemKind = "hybrid-norec"
)

// Figure5Systems are the systems the Figure 5 sweep compares: the
// paper's six plus HybridNOrec, the value-validating hybrid head-to-head
// the ROADMAP calls for.
var Figure5Systems = []SystemKind{
	UnboundedHTM, UFOHybrid, HyTM, PhTM, USTMUFO, USTM, TL2, HybridNOrec,
}

// AllSystems lists every buildable SystemKind — the full cross-system
// surface that conformance and race tests iterate, so a newly added
// system is covered automatically.
var AllSystems = []SystemKind{
	Sequential, GlobalLock, UnboundedHTM, UFOHybrid, HyTM, PhTM,
	USTM, USTMUFO, TL2, HybridNOrec,
}

// ParseSystem resolves a user-supplied system name (a flag value, a
// config field) to its SystemKind. Unknown names return an error listing
// the valid set, so callers can fail with a usable message instead of
// panicking inside build.
func ParseSystem(name string) (SystemKind, error) {
	for _, k := range AllSystems {
		if string(k) == name {
			return k, nil
		}
	}
	return "", fmt.Errorf("unknown system %q (want one of %v)", name, AllSystems)
}

// Options configures a run.
type Options struct {
	// Params is the machine configuration; Procs is overridden by the
	// per-run thread count.
	Params machine.Params
	// OTableRows sizes the USTM otable for the STM-based systems.
	OTableRows int
	// Policy configures the UFO hybrid.
	Policy core.Policy
	// CM selects the contention-management (backoff) policy for every
	// system that supports one (cm.Tunable). The zero value is the
	// paper's capped-exponential default. Spec is a value type: each
	// sweep cell instantiates its own policy, so cells stay independent.
	CM cm.Spec
	// TraceLimit, when positive, enables machine tracing (most recent
	// events kept) and returns the trace in the Result.
	TraceLimit int
	// Contention enables conflict attribution: a contention.Profile is
	// attached to the machine and its frozen Report returned in the
	// Result (and its headline totals registered as contention.* metrics).
	Contention bool
	// ContentionTopK bounds the hot lines kept per cell
	// (contention.DefaultTopK when 0).
	ContentionTopK int
	// TimeSeriesWindow is the contention time-series window width in
	// simulated cycles; 0 disables the time series.
	TimeSeriesWindow uint64
	// TxStats enables per-transaction lifecycle accounting: a
	// txstats.Recorder is attached to the machine and its frozen Report
	// returned in the Result (and its headline totals registered as
	// txstats.* metrics). Attaching the recorder never changes simulated
	// cycles — the hooks observe the run without perturbing it.
	TxStats bool
}

// DefaultOptions returns the evaluation configuration.
func DefaultOptions() Options {
	p := machine.DefaultParams(1)
	p.MemBytes = 1 << 26
	p.MaxSteps = 400_000_000
	return Options{
		Params:     p,
		OTableRows: 1 << 16,
		Policy:     core.DefaultPolicy(),
	}
}

// Build constructs the named system over a machine.
func Build(kind SystemKind, m *machine.Machine, opt Options) tm.System {
	sys := build(kind, m, opt)
	if t, ok := sys.(cm.Tunable); ok {
		t.SetBackoffPolicy(opt.CM)
	}
	return sys
}

func build(kind SystemKind, m *machine.Machine, opt Options) tm.System {
	cfg := ustm.DefaultConfig()
	if opt.OTableRows != 0 {
		cfg.OTableRows = opt.OTableRows
	}
	switch kind {
	case Sequential:
		return seq.New(m, seq.Sequential)
	case GlobalLock:
		return seq.New(m, seq.GlobalLock)
	case UnboundedHTM:
		return unbounded.New(m)
	case UFOHybrid:
		return core.New(m, cfg, opt.Policy)
	case HyTM:
		return hytm.New(m, cfg)
	case PhTM:
		return phtm.New(m, cfg)
	case USTM:
		cfg.StrongAtomicity = false
		return ustm.New(m, cfg)
	case USTMUFO:
		cfg.StrongAtomicity = true
		return ustm.New(m, cfg)
	case TL2:
		return tl2.New(m, tl2.DefaultConfig())
	case HybridNOrec:
		return norec.New(m, norec.DefaultConfig())
	}
	// Reaching here is internal misuse: user-supplied names must go
	// through ParseSystem, which rejects unknown ones with a usable error.
	panic("harness: build called with SystemKind " + string(kind) +
		" that is not in AllSystems; validate names with ParseSystem first")
}

// Result is one (workload, system, threads) measurement.
type Result struct {
	System   SystemKind
	Workload string
	Threads  int
	Cycles   uint64
	Stats    tm.Stats
	Machine  machine.Counters
	Metrics  *obs.Snapshot  // the cell's full metrics snapshot (OBSERVABILITY.md)
	Trace    *machine.Trace // non-nil when Options.TraceLimit > 0
	// Contention is the cell's conflict-attribution report; non-nil when
	// Options.Contention is set.
	Contention *contention.Report
	// TxStats is the cell's transaction-lifecycle report; non-nil when
	// Options.TxStats is set.
	TxStats *txstats.Report
	Err     error // non-nil if the workload invariant failed
}

// Speedup returns base/those cycles.
func (r Result) Speedup(seqCycles uint64) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(seqCycles) / float64(r.Cycles)
}

// Run executes one workload on one system with the given thread count.
// The workload must be freshly constructed (Init mutates it).
func Run(kind SystemKind, wl stamp.Workload, threads int, opt Options) Result {
	params := opt.Params
	params.Procs = threads
	m := machine.New(params)
	var tr *machine.Trace
	if opt.TraceLimit > 0 {
		tr = m.EnableTrace(opt.TraceLimit)
	}
	var prof *contention.Profile
	if opt.Contention {
		prof = contention.New(threads, opt.TimeSeriesWindow)
		m.Subscribe(prof, contention.Kinds...)
	}
	var txrec *txstats.Recorder
	if opt.TxStats {
		txrec = txstats.New(threads)
		m.Subscribe(txrec, txstats.Kinds...)
	}
	sys := Build(kind, m, opt)
	wl.Init(m, threads)
	bodies := make([]func(*machine.Proc), threads)
	for i := 0; i < threads; i++ {
		ex := sys.Exec(m.Proc(i))
		tid := i
		bodies[i] = func(*machine.Proc) { wl.Thread(tid, ex) }
	}
	m.Run(bodies)
	reg := obs.NewRegistry()
	sys.Stats().Register(reg)
	if ci, ok := sys.(cm.Instrumented); ok {
		ci.CM().Register(reg)
	}
	m.RegisterMetrics(reg)
	if tr != nil {
		tr.Register(reg)
	}
	res := Result{
		System:   kind,
		Workload: wl.Name(),
		Threads:  threads,
		Cycles:   m.Cycles(),
		Stats:    *sys.Stats(),
		Machine:  m.Count,
		Trace:    tr,
		Err:      wl.Validate(m),
	}
	if prof != nil {
		prof.Register(reg)
		res.Contention = prof.Report(opt.ContentionTopK)
		if ci, ok := sys.(cm.Instrumented); ok {
			st := ci.CM().Stats()
			res.Contention.CM = &contention.CMAnnotation{
				Policy:                ci.CM().PolicyName(),
				Delays:                st.Delays,
				DelayCycles:           st.DelayCycles,
				PageFaultStalls:       st.PageFaultStalls,
				RetryPolls:            st.RetryPolls,
				StarvationEscalations: st.StarvationEscalations,
				TokenAcquisitions:     st.TokenAcquisitions,
			}
		}
	}
	if txrec != nil {
		txrec.Register(reg)
		res.TxStats = txrec.Report()
	}
	res.Metrics = reg.Snapshot()
	return res
}

// WorkloadFactory builds a fresh workload instance per run.
type WorkloadFactory struct {
	Name string
	New  func() stamp.Workload
}

// Scale selects experiment sizes.
type Scale int

// Scales.
const (
	// ScaleSmall keeps runs fast enough for unit tests.
	ScaleSmall Scale = iota
	// ScaleFull is the configuration the committed EXPERIMENTS.md uses.
	ScaleFull
)

// Benchmarks returns the five Figure 5 workload configurations at the
// given scale.
func Benchmarks(s Scale) []WorkloadFactory {
	type sz struct {
		kmeansPts  int
		vacRel     int
		vacTasks   int
		genomeSegs int
	}
	z := sz{kmeansPts: 320, vacRel: 192, vacTasks: 24, genomeSegs: 192}
	if s == ScaleFull {
		z = sz{kmeansPts: 2400, vacRel: 2048, vacTasks: 96, genomeSegs: 768}
	}
	return []WorkloadFactory{
		{"kmeans-high", func() stamp.Workload { return stamp.KMeansHigh(z.kmeansPts) }},
		{"kmeans-low", func() stamp.Workload { return stamp.KMeansLow(z.kmeansPts) }},
		{"vacation-high", func() stamp.Workload { return stamp.VacationHigh(z.vacRel, z.vacTasks) }},
		{"vacation-low", func() stamp.Workload { return stamp.VacationLow(z.vacRel, z.vacTasks) }},
		{"genome", func() stamp.Workload { return stamp.NewGenome(z.genomeSegs) }},
	}
}

// ExtendedBenchmarks returns the extension workloads at the given scale
// — STAMP applications beyond the three the paper evaluates, covering the
// remaining corners of the design space: ssca2 (tiny transactions, low
// contention), intruder (queue-serialized pipeline), labyrinth (huge
// transactions that live almost entirely in the software TM).
func ExtendedBenchmarks(s Scale) []WorkloadFactory {
	type sz struct {
		nodes, edges int
		flows, frags int
		grid, paths  int
	}
	z := sz{nodes: 64, edges: 400, flows: 24, frags: 4, grid: 24, paths: 3}
	if s == ScaleFull {
		z = sz{nodes: 256, edges: 3000, flows: 96, frags: 6, grid: 48, paths: 8}
	}
	return []WorkloadFactory{
		{"ssca2", func() stamp.Workload { return stamp.NewSSCA2(z.nodes, z.edges) }},
		{"intruder", func() stamp.Workload { return stamp.NewIntruder(z.flows, z.frags) }},
		{"labyrinth", func() stamp.Workload {
			l := stamp.NewLabyrinth(z.grid, z.grid, z.paths)
			if s == ScaleFull {
				// Long routes exceed BTM's capacity: the all-software regime.
				l.PathLen = 256
			}
			return l
		}},
	}
}

// ThreadCounts returns the Figure 5 x-axis at the given scale.
func ThreadCounts(s Scale) []int {
	if s == ScaleFull {
		return []int{1, 2, 4, 8, 16}
	}
	return []int{1, 2, 4}
}

// SeqBaseline measures the sequential execution of a workload (the
// denominator of every speedup).
func SeqBaseline(f WorkloadFactory, opt Options) Result {
	return Run(Sequential, f.New(), 1, opt)
}
