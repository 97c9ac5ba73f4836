package harness

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/machine"
	"repro/internal/stamp"
)

// Figure5Data holds one workload's speedup sweep.
type Figure5Data struct {
	Workload  string
	SeqCycles uint64
	// Cells[system][threads] is the measured run.
	Cells map[SystemKind]map[int]Result
}

// Figure5 reproduces the paper's Figure 5: speedup over sequential
// execution for every benchmark × TM system × thread count.
func (r *Runner) Figure5(opt Options, scale Scale) ([]Figure5Data, error) {
	return r.Sweep(Benchmarks(scale), Figure5Systems, opt, scale)
}

// Extended runs the same sweep over the extension workloads (STAMP
// benchmarks beyond the paper's three: ssca2, intruder, labyrinth).
func (r *Runner) Extended(opt Options, scale Scale) ([]Figure5Data, error) {
	return r.Sweep(ExtendedBenchmarks(scale), Figure5Systems, opt, scale)
}

// Sweep measures speedup over sequential for every workload × system ×
// thread count. All cells (including the per-workload sequential
// baselines) fan out across the Runner's worker pool; the assembled
// data is identical for every worker count.
func (r *Runner) Sweep(factories []WorkloadFactory, systems []SystemKind, opt Options, scale Scale) ([]Figure5Data, error) {
	threads := ThreadCounts(scale)
	var jobs []Job
	for _, f := range factories {
		jobs = append(jobs, Job{System: Sequential, Factory: f, Threads: 1, Opt: opt})
		for _, sys := range systems {
			for _, t := range threads {
				jobs = append(jobs, Job{System: sys, Factory: f, Threads: t, Opt: opt})
			}
		}
	}
	results, err := r.Execute(jobs)
	var out []Figure5Data
	i := 0
	for _, f := range factories {
		d := Figure5Data{
			Workload: f.Name,
			Cells:    make(map[SystemKind]map[int]Result),
		}
		d.SeqCycles = results[i].Cycles
		i++
		for _, sys := range systems {
			d.Cells[sys] = make(map[int]Result)
			for _, t := range threads {
				d.Cells[sys][t] = results[i]
				i++
			}
		}
		out = append(out, d)
	}
	return out, err
}

// PrintFigure5 renders the sweep as text tables.
func PrintFigure5(w io.Writer, data []Figure5Data, scale Scale) {
	for _, d := range data {
		fmt.Fprintf(w, "\nFigure 5 — %s (speedup vs. sequential; seq = %d cycles)\n", d.Workload, d.SeqCycles)
		fmt.Fprintf(w, "%-14s", "system")
		for _, t := range ThreadCounts(scale) {
			fmt.Fprintf(w, "%8s", fmt.Sprintf("p=%d", t))
		}
		fmt.Fprintln(w)
		for _, sys := range Figure5Systems {
			fmt.Fprintf(w, "%-14s", sys)
			for _, t := range ThreadCounts(scale) {
				fmt.Fprintf(w, "%8.2f", d.Cells[sys][t].Speedup(d.SeqCycles))
			}
			fmt.Fprintln(w)
		}
	}
}

// ScaleProcCounts is the `-experiment scale` x-axis: simulated-processor
// counts beyond the paper's 16, exercising the 256-processor directory
// and the engine's ready heap. The small scale keeps unit tests fast.
func ScaleProcCounts(s Scale) []int {
	if s == ScaleFull {
		return []int{64, 128, 256}
	}
	return []int{8, 16}
}

// ScaleSystems are the systems the scaling study sweeps: the paper's
// hybrid and a pure STM for contrast.
var ScaleSystems = []SystemKind{UFOHybrid, TL2}

// ScaleBenchmark returns the scaling-study workload at the given scale.
func ScaleBenchmark(s Scale) WorkloadFactory {
	iters, work := 400, 64
	if s == ScaleFull {
		iters, work = 12800, 256
	}
	return WorkloadFactory{
		Name: "scalemix",
		New:  func() stamp.Workload { return stamp.NewScaleMix(iters, work) },
	}
}

// ScaleSweep runs the Figure-5-style scaling study: scalemix speedup
// over sequential at every ScaleProcCounts processor count. The engine
// scheduler comes from opt.Params (tmsim's -sched flag); results are
// bit-identical across schedulers, only the wall clock differs.
func (r *Runner) ScaleSweep(opt Options, scale Scale) (Figure5Data, error) {
	f := ScaleBenchmark(scale)
	procs := ScaleProcCounts(scale)
	jobs := []Job{{System: Sequential, Factory: f, Threads: 1, Opt: opt}}
	for _, sys := range ScaleSystems {
		for _, p := range procs {
			jobs = append(jobs, Job{System: sys, Factory: f, Threads: p, Opt: opt})
		}
	}
	results, err := r.Execute(jobs)
	d := Figure5Data{Workload: f.Name, Cells: make(map[SystemKind]map[int]Result)}
	d.SeqCycles = results[0].Cycles
	i := 1
	for _, sys := range ScaleSystems {
		d.Cells[sys] = make(map[int]Result)
		for _, p := range procs {
			d.Cells[sys][p] = results[i]
			i++
		}
	}
	return d, err
}

// PrintScaleSweep renders the scaling study as a text table.
func PrintScaleSweep(w io.Writer, d Figure5Data, scale Scale) {
	fmt.Fprintf(w, "\nScaling study — %s (speedup vs. sequential; seq = %d cycles)\n", d.Workload, d.SeqCycles)
	fmt.Fprintf(w, "%-14s", "system")
	for _, p := range ScaleProcCounts(scale) {
		fmt.Fprintf(w, "%8s", fmt.Sprintf("p=%d", p))
	}
	fmt.Fprintln(w)
	for _, sys := range ScaleSystems {
		fmt.Fprintf(w, "%-14s", sys)
		for _, p := range ScaleProcCounts(scale) {
			fmt.Fprintf(w, "%8.2f", d.Cells[sys][p].Speedup(d.SeqCycles))
		}
		fmt.Fprintln(w)
	}
}

// Figure6Row is one (workload, system) abort breakdown.
type Figure6Row struct {
	Workload string
	System   SystemKind
	Result   Result
}

// Figure6Systems are the hardware-transaction-running systems whose abort
// reasons Figure 6 breaks down.
var Figure6Systems = []SystemKind{UnboundedHTM, UFOHybrid, HyTM, PhTM}

// Figure6 reproduces the abort-reason breakdown at the largest thread
// count of the scale.
func (r *Runner) Figure6(opt Options, scale Scale) ([]Figure6Row, error) {
	threads := ThreadCounts(scale)[len(ThreadCounts(scale))-1]
	var jobs []Job
	for _, f := range Benchmarks(scale) {
		for _, sys := range Figure6Systems {
			jobs = append(jobs, Job{System: sys, Factory: f, Threads: threads, Opt: opt})
		}
	}
	results, err := r.Execute(jobs)
	out := make([]Figure6Row, len(jobs))
	for i, j := range jobs {
		out[i] = Figure6Row{Workload: j.Factory.Name, System: j.System, Result: results[i]}
	}
	return out, err
}

// figure6Reasons are the abort categories Figure 6 plots.
var figure6Reasons = []machine.AbortReason{
	machine.AbortOverflow, machine.AbortConflict, machine.AbortUFOKill,
	machine.AbortUFOFault, machine.AbortNonTConflict, machine.AbortInterrupt,
	machine.AbortExplicit, machine.AbortSyscall,
}

// PrintFigure6 renders the breakdown.
func PrintFigure6(w io.Writer, rows []Figure6Row) {
	fmt.Fprintf(w, "\nFigure 6 — hardware-transaction abort reasons (largest thread count)\n")
	fmt.Fprintf(w, "%-14s %-14s %9s", "workload", "system", "hwCommit")
	for _, r := range figure6Reasons {
		fmt.Fprintf(w, "%10s", r)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%-14s %-14s %9d", row.Workload, row.System, row.Result.Stats.HWCommits)
		for _, r := range figure6Reasons {
			fmt.Fprintf(w, "%10d", row.Result.Machine.HWAbortsByReason[r])
		}
		fmt.Fprintln(w)
	}
}

// Figure7Data holds the failover-rate sweep.
type Figure7Data struct {
	Threads   int
	Rates     []int
	SeqCycles map[int]uint64 // per rate (the coin flip costs cycles)
	// Cells[system][rate] is the measured run.
	Cells map[SystemKind]map[int]Result
}

// Figure7Systems compares the hybrids against pure HTM and pure STM.
var Figure7Systems = []SystemKind{UnboundedHTM, UFOHybrid, HyTM, PhTM, USTMUFO}

// Figure7 reproduces the software-failover microbenchmark (Section 5.3):
// conflict-free transactions forced to software at a prescribed rate.
func (r *Runner) Figure7(opt Options, scale Scale) (Figure7Data, error) {
	threads := ThreadCounts(scale)[len(ThreadCounts(scale))-1]
	tasks := 60
	if scale == ScaleFull {
		tasks = 200
	}
	d := Figure7Data{
		Threads:   threads,
		Rates:     []int{0, 1, 2, 5, 10, 20, 40, 60, 80, 100},
		SeqCycles: make(map[int]uint64),
		Cells:     make(map[SystemKind]map[int]Result),
	}
	if scale == ScaleSmall {
		d.Rates = []int{0, 5, 20, 60, 100}
	}
	failover := func(rate int) WorkloadFactory {
		return WorkloadFactory{
			Name: fmt.Sprintf("failover-%d%%", rate),
			New:  func() stamp.Workload { return stamp.NewFailover(tasks, rate) },
		}
	}
	var jobs []Job
	for _, rate := range d.Rates {
		jobs = append(jobs, Job{System: Sequential, Factory: failover(rate), Threads: 1, Opt: opt})
	}
	for _, sys := range Figure7Systems {
		for _, rate := range d.Rates {
			jobs = append(jobs, Job{System: sys, Factory: failover(rate), Threads: threads, Opt: opt})
		}
	}
	results, err := r.Execute(jobs)
	i := 0
	for _, rate := range d.Rates {
		d.SeqCycles[rate] = results[i].Cycles
		i++
	}
	for _, sys := range Figure7Systems {
		d.Cells[sys] = make(map[int]Result)
		for _, rate := range d.Rates {
			d.Cells[sys][rate] = results[i]
			i++
		}
	}
	return d, err
}

// PrintFigure7 renders the sweep: absolute speedups (7a) and the
// low-rate zoom normalized to pure HTM (7b).
func PrintFigure7(w io.Writer, d Figure7Data) {
	fmt.Fprintf(w, "\nFigure 7a — failover microbenchmark, %d threads (speedup vs. sequential)\n", d.Threads)
	fmt.Fprintf(w, "%-14s", "system")
	for _, rate := range d.Rates {
		fmt.Fprintf(w, "%8s", fmt.Sprintf("%d%%", rate))
	}
	fmt.Fprintln(w)
	for _, sys := range Figure7Systems {
		fmt.Fprintf(w, "%-14s", sys)
		for _, rate := range d.Rates {
			fmt.Fprintf(w, "%8.2f", d.Cells[sys][rate].Speedup(d.SeqCycles[rate]))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nFigure 7b — low failover rates, relative to pure HTM (=1.00)\n")
	var low []int
	for _, r := range d.Rates {
		if r <= 10 {
			low = append(low, r)
		}
	}
	sort.Ints(low)
	fmt.Fprintf(w, "%-14s", "system")
	for _, rate := range low {
		fmt.Fprintf(w, "%8s", fmt.Sprintf("%d%%", rate))
	}
	fmt.Fprintln(w)
	for _, sys := range Figure7Systems {
		fmt.Fprintf(w, "%-14s", sys)
		for _, rate := range low {
			htm := float64(d.Cells[UnboundedHTM][rate].Cycles)
			fmt.Fprintf(w, "%8.3f", htm/float64(d.Cells[sys][rate].Cycles))
		}
		fmt.Fprintln(w)
	}
}

// Figure8Variant is one contention-management configuration.
type Figure8Variant struct {
	Name   string
	Mutate func(*Options)
}

// Figure8Variants are the Section 5.4 sensitivity configurations.
func Figure8Variants() []Figure8Variant {
	return []Figure8Variant{
		{"age-ordered (default)", func(*Options) {}},
		// The paper's first bar pairs the naive hardware policy with
		// failover after repeated contention aborts (required there for
		// forward progress).
		{"requester-wins+failover5", func(o *Options) {
			o.Params.HWPolicy = machine.RequesterWins
			o.Policy.FailoverOnNthConflict = 5
		}},
		{"requester-wins", func(o *Options) { o.Params.HWPolicy = machine.RequesterWins }},
		{"failover-on-5th-conflict", func(o *Options) { o.Policy.FailoverOnNthConflict = 5 }},
		{"stall-on-ufo-fault", func(o *Options) { o.Policy.StallOnUFOFault = true }},
		{"true-conflict-kills-only", func(o *Options) { o.Params.TrueConflictUFOKills = true }},
	}
}

// Figure8Row is one (workload, variant) measurement.
type Figure8Row struct {
	Workload  string
	Variant   string
	SeqCycles uint64
	Result    Result
}

// Figure8 reproduces the contention-policy sensitivity study on the UFO
// hybrid over the two highest-contention benchmarks.
func (r *Runner) Figure8(opt Options, scale Scale) ([]Figure8Row, error) {
	threads := ThreadCounts(scale)[len(ThreadCounts(scale))-1]
	variants := Figure8Variants()
	var factories []WorkloadFactory
	for _, f := range Benchmarks(scale) {
		if f.Name == "genome" || f.Name == "kmeans-high" || f.Name == "vacation-high" {
			factories = append(factories, f)
		}
	}
	var jobs []Job
	for _, f := range factories {
		jobs = append(jobs, Job{System: Sequential, Factory: f, Threads: 1, Opt: opt})
		for _, v := range variants {
			o := opt
			v.Mutate(&o)
			jobs = append(jobs, Job{System: UFOHybrid, Factory: f, Threads: threads, Opt: o})
		}
	}
	results, err := r.Execute(jobs)
	var out []Figure8Row
	i := 0
	for _, f := range factories {
		seqCycles := results[i].Cycles
		i++
		for _, v := range variants {
			out = append(out, Figure8Row{
				Workload:  f.Name,
				Variant:   v.Name,
				SeqCycles: seqCycles,
				Result:    results[i],
			})
			i++
		}
	}
	return out, err
}

// PrintFigure8 renders the study.
func PrintFigure8(w io.Writer, rows []Figure8Row) {
	fmt.Fprintf(w, "\nFigure 8 — UFO-hybrid contention-management sensitivity (speedup vs. sequential)\n")
	fmt.Fprintf(w, "%-14s %-26s %8s %10s %10s\n", "workload", "policy", "speedup", "failovers", "ufoKills")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-26s %8.2f %10d %10d\n",
			r.Workload, r.Variant, r.Result.Speedup(r.SeqCycles),
			r.Result.Stats.Failovers,
			r.Result.Machine.UFOKillsTrue+r.Result.Machine.UFOKillsFalse)
	}
}

// PrintParams renders the Table 4 analogue.
func PrintParams(w io.Writer, opt Options) {
	p := opt.Params
	fmt.Fprintln(w, "Table 4 — simulation parameters")
	fmt.Fprintf(w, "  L1 data cache        %d KB, %d-way, 64 B lines, %d-cycle hit\n", p.L1Bytes/1024, p.L1Ways, p.L1HitCycles)
	fmt.Fprintf(w, "  L2 (shared) latency  %d cycles\n", p.L2HitCycles)
	fmt.Fprintf(w, "  Memory latency       %d cycles\n", p.MemCycles)
	fmt.Fprintf(w, "  Cache-to-cache       %d cycles\n", p.TransferCycles)
	fmt.Fprintf(w, "  NACK retry delay     %d cycles\n", p.NackCycles)
	fmt.Fprintf(w, "  Scheduling quantum   %d cycles\n", p.Quantum)
	fmt.Fprintf(w, "  UFO bit operation    %d cycles\n", p.UFOOpCycles)
	fmt.Fprintf(w, "  USTM otable rows     %d\n", opt.OTableRows)
}
