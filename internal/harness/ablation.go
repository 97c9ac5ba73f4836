package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/machine"
	"repro/internal/obs"
)

// AblationRow is one configuration point in an ablation sweep.
type AblationRow struct {
	Study     string
	Config    string
	Workload  string
	SeqCycles uint64
	Result    Result
}

// studyConfig is one configuration of an ablation study: a label, the
// system to run, and an options mutation.
type studyConfig struct {
	name   string
	system SystemKind
	mutate func(*Options)
}

// runStudy measures one workload's sequential baseline plus every
// configuration of a study through the Runner's worker pool.
func (r *Runner) runStudy(study string, f WorkloadFactory, threads int, opt Options, configs []studyConfig) ([]AblationRow, error) {
	jobs := []Job{{System: Sequential, Factory: f, Threads: 1, Opt: opt}}
	for _, c := range configs {
		o := opt
		c.mutate(&o)
		jobs = append(jobs, Job{System: c.system, Factory: f, Threads: threads, Opt: o})
	}
	results, err := r.Execute(jobs)
	seq := results[0].Cycles
	out := make([]AblationRow, len(configs))
	for i, c := range configs {
		out[i] = AblationRow{
			Study: study, Config: c.name, Workload: f.Name,
			SeqCycles: seq,
			Result:    results[i+1],
		}
	}
	return out, err
}

// AblationUFOMitigations evaluates the paper's two proposed fixes for
// false UFO/BTM conflicts (Section 4.3) — owner-state bit installation
// and lazy bit clearing — against the default eager protocol and the
// true-conflict-only limit study, on the workload with the heaviest
// STM/HTM interaction.
func (r *Runner) AblationUFOMitigations(opt Options, scale Scale) ([]AblationRow, error) {
	threads := ThreadCounts(scale)[len(ThreadCounts(scale))-1]
	return r.runStudy("ufo-mitigations", benchmarkByName(scale, "vacation-high"), threads, opt, []studyConfig{
		{"eager (default)", UFOHybrid, func(*Options) {}},
		{"owner-state install", UFOHybrid, func(o *Options) { o.Params.OwnerStateUFO = true }},
		{"lazy clear", UFOHybrid, func(o *Options) { o.Params.LazyUFOClear = true }},
		{"both mitigations", UFOHybrid, func(o *Options) {
			o.Params.OwnerStateUFO = true
			o.Params.LazyUFOClear = true
		}},
		{"true-conflict limit", UFOHybrid, func(o *Options) { o.Params.TrueConflictUFOKills = true }},
	})
}

// AblationL1Size sweeps the transactional capacity: smaller L1s overflow
// more transactions to software, quantifying how much of the hybrid's
// performance rides on hardware capacity (the DESIGN.md ablation for the
// bounded-HTM design choice).
func (r *Runner) AblationL1Size(opt Options, scale Scale) ([]AblationRow, error) {
	threads := ThreadCounts(scale)[len(ThreadCounts(scale))-1]
	var configs []studyConfig
	for _, kb := range []int{4, 8, 16, 32, 64} {
		configs = append(configs, studyConfig{
			fmt.Sprintf("%d KB", kb), UFOHybrid,
			func(o *Options) { o.Params.L1Bytes = kb * 1024 },
		})
	}
	return r.runStudy("l1-size", benchmarkByName(scale, "vacation-high"), threads, opt, configs)
}

// AblationOTableSize sweeps the ownership-table row count: small tables
// alias unrelated lines to the same row, manufacturing conflicts — the
// reason the paper sizes otables at "tens of thousands" of entries.
func (r *Runner) AblationOTableSize(opt Options, scale Scale) ([]AblationRow, error) {
	threads := ThreadCounts(scale)[len(ThreadCounts(scale))-1]
	var configs []studyConfig
	for _, rows := range []int{1 << 6, 1 << 10, 1 << 16} {
		configs = append(configs, studyConfig{
			fmt.Sprintf("%d rows", rows), USTMUFO,
			func(o *Options) { o.OTableRows = rows },
		})
	}
	return r.runStudy("otable-size", benchmarkByName(scale, "vacation-low"), threads, opt, configs)
}

// AblationQuantum sweeps the scheduling quantum: short quanta interrupt
// (and so abort) more hardware transactions, which the abort handler must
// absorb as recoverable retries.
func (r *Runner) AblationQuantum(opt Options, scale Scale) ([]AblationRow, error) {
	threads := ThreadCounts(scale)[len(ThreadCounts(scale))-1]
	var configs []studyConfig
	for _, q := range []uint64{5_000, 50_000, 200_000, 2_000_000} {
		configs = append(configs, studyConfig{
			fmt.Sprintf("%d cycles", q), UFOHybrid,
			func(o *Options) { o.Params.Quantum = q },
		})
	}
	return r.runStudy("quantum", benchmarkByName(scale, "kmeans-low"), threads, opt, configs)
}

// Ablations runs every ablation study.
func (r *Runner) Ablations(opt Options, scale Scale) ([]AblationRow, error) {
	var out []AblationRow
	var errs []error
	for _, study := range []func(Options, Scale) ([]AblationRow, error){
		r.AblationUFOMitigations, r.AblationL1Size, r.AblationOTableSize, r.AblationQuantum,
	} {
		rows, err := study(opt, scale)
		out = append(out, rows...)
		errs = append(errs, err)
	}
	return out, mergeSweepErrors(errs...)
}

// PrintAblations renders the studies.
func PrintAblations(w io.Writer, rows []AblationRow) {
	study := ""
	for _, r := range rows {
		if r.Study != study {
			study = r.Study
			fmt.Fprintf(w, "\nAblation — %s (%s)\n", study, r.Workload)
			fmt.Fprintf(w, "%-22s %8s %10s %10s %10s %10s\n",
				"config", "speedup", "failovers", "overflows", "ufoKills", "interrupts")
		}
		fmt.Fprintf(w, "%-22s %8.2f %10d %10d %10d %10d\n",
			r.Config, r.Result.Speedup(r.SeqCycles),
			r.Result.Stats.Failovers,
			r.Result.Machine.HWAbortsByReason[machine.AbortOverflow],
			r.Result.Machine.UFOKillsTrue+r.Result.Machine.UFOKillsFalse,
			r.Result.Machine.HWAbortsByReason[machine.AbortInterrupt])
	}
}

// benchmarkByName returns the named workload factory at the given scale.
func benchmarkByName(scale Scale, name string) WorkloadFactory {
	for _, f := range Benchmarks(scale) {
		if f.Name == name {
			return f
		}
	}
	panic("harness: unknown benchmark " + name)
}

// FootprintRow is one workload's transaction-footprint profile on the
// UFO hybrid.
type FootprintRow struct {
	Workload string
	Result   Result
}

// Footprints profiles committed-transaction footprints per benchmark —
// the data behind the paper's observation that "a significant majority
// of the dynamic transactions ... execute completely in BTM".
func (r *Runner) Footprints(opt Options, scale Scale) ([]FootprintRow, error) {
	threads := ThreadCounts(scale)[len(ThreadCounts(scale))-1]
	var jobs []Job
	for _, f := range append(Benchmarks(scale), ExtendedBenchmarks(scale)...) {
		jobs = append(jobs, Job{System: UFOHybrid, Factory: f, Threads: threads, Opt: opt})
	}
	results, err := r.Execute(jobs)
	out := make([]FootprintRow, len(jobs))
	for i, j := range jobs {
		out[i] = FootprintRow{Workload: j.Factory.Name, Result: results[i]}
	}
	return out, err
}

// PrintFootprints renders the profile: per workload, the hardware
// commits' mean and maximum footprint and the share of them in buckets
// labelled ≤64 lines, plus the software footprint histogram's non-empty
// buckets. Each bucket is labelled by the smallest footprint it holds.
func PrintFootprints(w io.Writer, rows []FootprintRow) {
	lo := func(bucket int) uint64 {
		if bucket == 0 {
			return 0
		}
		return 1 << (bucket - 1)
	}
	mean := func(h *obs.HistSnapshot) float64 {
		if h.Count == 0 {
			return 0
		}
		return float64(h.Sum) / float64(h.Count)
	}
	fmt.Fprintf(w, "\nTransaction footprints on the UFO hybrid (distinct lines per committed tx)\n")
	fmt.Fprintf(w, "%-14s %9s %9s %8s %8s %8s  %s\n",
		"workload", "hwCommit", "swCommit", "hwMean", "hwMax", "≤64ln", "swHist")
	for _, r := range rows {
		hw := r.Result.Machine.HWFootprint.Snapshot()
		sw := r.Result.Machine.SWFootprint.Snapshot()
		var upTo64 float64
		for i, n := range hw.Buckets {
			if lo(i) <= 64 {
				upTo64 += float64(n)
			}
		}
		if hw.Count > 0 {
			upTo64 /= float64(hw.Count)
		}
		swHist := "(empty)"
		if sw.Count > 0 {
			var sb strings.Builder
			fmt.Fprintf(&sb, "n=%d mean=%.1f max=%d [", sw.Count, mean(sw), sw.Max)
			sep := ""
			for i, n := range sw.Buckets {
				if n != 0 {
					fmt.Fprintf(&sb, "%s≤%d:%d", sep, lo(i), n)
					sep = " "
				}
			}
			sb.WriteString("]")
			swHist = sb.String()
		}
		fmt.Fprintf(w, "%-14s %9d %9d %8.1f %8d %7.0f%%  %s\n",
			r.Workload, hw.Count, sw.Count, mean(hw), hw.Max, upTo64*100, swHist)
	}
}
