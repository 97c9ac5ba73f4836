package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/cm"
	"repro/internal/contention"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/oltp"
)

// config carries every tmsim flag value plus the set of flags the user
// explicitly passed (so validation can tell a default apart from an
// explicit choice).
type config struct {
	experiment string
	scaleName  string
	policy     string
	sched      string
	seed       uint64
	seeds      int
	csvPath    string
	parallel   int
	progress   bool
	metricsOut string
	txstatsOut string

	traceOut      string
	traceFormat   string
	traceWorkload string
	traceSystem   string
	traceThreads  int
	traceLimit    int

	litmusOut string

	oltpOut     string
	oltpArrival string
	oltpTheta   float64
	oltpReadPct int
	oltpRMWPct  int
	oltpScanPct int

	contentionOut    string
	contentionTopK   int
	timeseriesWindow uint64
	reportFormat     string

	cpuProfile string
	memProfile string

	set map[string]bool
}

// knownExperiments are the -experiment values main dispatches on.
var knownExperiments = []string{
	"params", "fig5", "fig6", "fig7", "fig8", "ablate", "extended",
	"footprints", "policies", "litmus", "latency", "scale", "oltp", "all",
}

// parseConfig parses argv (without the program name), records which
// flags were explicitly set, and validates the combination. Errors are
// user errors: main reports them and exits 2.
func parseConfig(args []string, errOut io.Writer) (*config, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("tmsim", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&cfg.experiment, "experiment", "all", "fig5 | fig6 | fig7 | fig8 | ablate | extended | footprints | policies | litmus | latency | scale | params | all")
	fs.StringVar(&cfg.scaleName, "scale", "full", "small | full")
	fs.StringVar(&cfg.policy, "policy", "exp", "contention-management policy: exp | linear | karma | serialize")
	fs.StringVar(&cfg.sched, "sched", "fast", "engine scheduler: fast | reference (results are bit-identical; only wall clock differs)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "machine RNG seed")
	fs.IntVar(&cfg.seeds, "seeds", 0, "run fig5 across seeds 1..N and report mean/min/max")
	fs.StringVar(&cfg.csvPath, "csv", "", "also write the fig5 sweep as CSV to this file")
	fs.IntVar(&cfg.parallel, "parallel", 0, "sweep worker count (0 = one per CPU, 1 = serial)")
	fs.BoolVar(&cfg.progress, "progress", false, "report sweep progress (cells done/total, ETA) on stderr")
	fs.StringVar(&cfg.metricsOut, "metrics-out", "", "write per-cell + aggregate metrics JSON to this file")
	fs.StringVar(&cfg.txstatsOut, "txstats-out", "", "write the per-transaction lifecycle (txstats) report as JSON to this file")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "run one traced cell and write its machine trace to this file (skips experiments)")
	fs.StringVar(&cfg.traceFormat, "trace-format", "text", "trace export format: text | jsonl | chrome")
	fs.StringVar(&cfg.traceWorkload, "trace-workload", "genome", "workload for the traced cell")
	fs.StringVar(&cfg.traceSystem, "trace-system", "ufo-hybrid", "TM system for the traced cell")
	fs.IntVar(&cfg.traceThreads, "trace-threads", 4, "thread count for the traced cell")
	fs.IntVar(&cfg.traceLimit, "trace-limit", 1<<20, "max trace events retained (ring buffer)")
	fs.StringVar(&cfg.litmusOut, "litmus-out", "", "also write the litmus conformance report as JSON to this file")
	fs.StringVar(&cfg.oltpOut, "oltp-out", "", "also write the open-loop service (tmsim-oltp/v1) report as JSON to this file")
	fs.StringVar(&cfg.oltpArrival, "oltp-arrival", "poisson", "oltp arrival process: poisson | mmpp")
	fs.Float64Var(&cfg.oltpTheta, "oltp-theta", 0.9, "oltp default Zipfian skew (the load and mix axes run at this theta)")
	fs.IntVar(&cfg.oltpReadPct, "oltp-read-pct", 80, "oltp default point-read percentage (read+rmw+scan must sum to 100)")
	fs.IntVar(&cfg.oltpRMWPct, "oltp-rmw-pct", 15, "oltp default read-modify-write percentage")
	fs.IntVar(&cfg.oltpScanPct, "oltp-scan-pct", 5, "oltp default range-scan percentage")
	fs.StringVar(&cfg.contentionOut, "contention-out", "", "write the conflict-attribution (contention) report to this file")
	fs.IntVar(&cfg.contentionTopK, "contention-topk", contention.DefaultTopK, "hot cache lines kept per cell in the contention report")
	fs.Uint64Var(&cfg.timeseriesWindow, "timeseries-window", 100_000, "contention time-series window width in simulated cycles")
	fs.StringVar(&cfg.reportFormat, "report", "json", "contention report format: json | html | text")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a host CPU profile (runtime/pprof) to this file")
	fs.StringVar(&cfg.memProfile, "memprofile", "", "write a host heap profile (runtime/pprof) to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	cfg.set = make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { cfg.set[f.Name] = true })
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// spec resolves -policy (validate has already vetted it).
func (cfg *config) spec() cm.Spec {
	s, _ := cm.ParseSpec(cfg.policy)
	return s
}

// applySched writes the -sched selection into params.
func (cfg *config) applySched(p *machine.Params) {
	p.ReferenceScheduler = cfg.sched == "reference"
}

// scale resolves -scale (validate has already vetted it).
func (cfg *config) scale() harness.Scale {
	if cfg.scaleName == "small" {
		return harness.ScaleSmall
	}
	return harness.ScaleFull
}

// validate rejects invalid values and contradictory flag combinations
// up front, so a long sweep never runs only to fail at output time.
func (cfg *config) validate() error {
	switch cfg.scaleName {
	case "small", "full":
	default:
		return fmt.Errorf("unknown scale %q (want small or full)", cfg.scaleName)
	}
	// Check system-name flags against the harness registry before
	// anything else: a typo'd name must produce the valid list (exit 2),
	// never reach harness.build — even when the flag is otherwise inert
	// because its destination flag is missing.
	if cfg.set["trace-system"] {
		if _, err := harness.ParseSystem(cfg.traceSystem); err != nil {
			return fmt.Errorf("-trace-system: %w", err)
		}
	}
	known := false
	for _, e := range knownExperiments {
		if cfg.experiment == e {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (want one of %v)", cfg.experiment, knownExperiments)
	}
	if _, err := cm.ParseSpec(cfg.policy); err != nil {
		return fmt.Errorf("-policy %q: want one of %v", cfg.policy, cm.Kinds)
	}
	switch cfg.sched {
	case "fast", "reference":
	default:
		return fmt.Errorf("unknown scheduler %q (want fast or reference)", cfg.sched)
	}
	if cfg.seeds < 0 {
		return fmt.Errorf("-seeds %d: want >= 0", cfg.seeds)
	}
	if cfg.parallel < 0 {
		return fmt.Errorf("-parallel %d: want >= 0", cfg.parallel)
	}
	switch cfg.traceFormat {
	case "text", "jsonl", "chrome":
	default:
		return fmt.Errorf("unknown trace format %q (want text, jsonl, or chrome)", cfg.traceFormat)
	}
	switch cfg.reportFormat {
	case "json", "html", "text":
	default:
		return fmt.Errorf("unknown report format %q (want json, html, or text)", cfg.reportFormat)
	}

	if cfg.litmusOut != "" && cfg.experiment != "litmus" && cfg.experiment != "all" {
		return fmt.Errorf("-litmus-out requires -experiment litmus (or all)")
	}

	// The -oltp-* flags only mean something under -experiment oltp
	// (which is deliberately not part of "all").
	if cfg.experiment != "oltp" {
		for _, f := range []string{"oltp-out", "oltp-arrival", "oltp-theta", "oltp-read-pct", "oltp-rmw-pct", "oltp-scan-pct"} {
			if cfg.set[f] {
				return fmt.Errorf("-%s requires -experiment oltp", f)
			}
		}
	} else {
		if _, err := oltp.ParseArrival(cfg.oltpArrival); err != nil {
			return fmt.Errorf("-oltp-arrival: %w", err)
		}
		if cfg.oltpTheta < 0 {
			return fmt.Errorf("-oltp-theta %v: want >= 0", cfg.oltpTheta)
		}
		for _, pc := range []struct {
			name string
			v    int
		}{{"oltp-read-pct", cfg.oltpReadPct}, {"oltp-rmw-pct", cfg.oltpRMWPct}, {"oltp-scan-pct", cfg.oltpScanPct}} {
			if pc.v < 0 || pc.v > 100 {
				return fmt.Errorf("-%s %d: want 0..100", pc.name, pc.v)
			}
		}
		if sum := cfg.oltpReadPct + cfg.oltpRMWPct + cfg.oltpScanPct; sum != 100 {
			return fmt.Errorf("-oltp-read-pct + -oltp-rmw-pct + -oltp-scan-pct must sum to 100 (got %d)", sum)
		}
	}

	// Trace flags only mean something with a trace destination.
	if cfg.traceOut == "" {
		for _, f := range []string{"trace-format", "trace-workload", "trace-system", "trace-threads", "trace-limit"} {
			if cfg.set[f] {
				return fmt.Errorf("-%s requires -trace-out", f)
			}
		}
	} else {
		if _, ok := harness.FindWorkload(cfg.traceWorkload, cfg.scale()); !ok {
			return fmt.Errorf("unknown workload %q for -trace-workload", cfg.traceWorkload)
		}
		if _, err := harness.ParseSystem(cfg.traceSystem); err != nil {
			return fmt.Errorf("-trace-system: %w", err)
		}
		if cfg.traceThreads < 1 {
			return fmt.Errorf("-trace-threads %d: want >= 1", cfg.traceThreads)
		}
		if cfg.traceLimit < 1 {
			return fmt.Errorf("-trace-limit %d: want >= 1", cfg.traceLimit)
		}
	}

	// Contention flags only mean something with a contention destination.
	if cfg.contentionOut == "" {
		for _, f := range []string{"contention-topk", "timeseries-window", "report"} {
			if cfg.set[f] {
				return fmt.Errorf("-%s requires -contention-out", f)
			}
		}
	} else {
		if cfg.contentionTopK < 1 {
			return fmt.Errorf("-contention-topk %d: want >= 1", cfg.contentionTopK)
		}
		if cfg.timeseriesWindow == 0 {
			return fmt.Errorf("-timeseries-window 0 disables the time series the contention report includes; use a positive window width")
		}
	}
	return nil
}

// system resolves -trace-system (validate has already vetted it).
func (cfg *config) system() harness.SystemKind {
	k, _ := harness.ParseSystem(cfg.traceSystem)
	return k
}

// oltpSweep resolves the -oltp-* flags (validate has already vetted
// them) into the sweep shape.
func (cfg *config) oltpSweep() harness.OLTPSweepConfig {
	kind, _ := oltp.ParseArrival(cfg.oltpArrival)
	return harness.OLTPSweepConfig{
		Arrival: kind,
		Theta:   cfg.oltpTheta,
		ReadPct: cfg.oltpReadPct,
		RMWPct:  cfg.oltpRMWPct,
		ScanPct: cfg.oltpScanPct,
	}
}
