package main

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/oltp"
	"repro/internal/stamp"
)

// A workload is one sweep the benchmark times: the job list tmsim would
// build for that experiment, with the benchmark's seed substituted.
type workload struct {
	name string
	jobs func(seed uint64, s harness.Scale) []harness.Job
}

// workloads lists the benchmark's workloads; README.md gives the reason
// for each and the layers it stresses.
var workloads = []workload{
	{"fig5-full", fig5Jobs},
	{"oltp-sweep", oltpJobs},
	{"scale-256", scaleJobs},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// options is harness.DefaultOptions with the machine seeded from the
// benchmark's seed; seed 1 is tmsim's default.
func options(seed uint64) harness.Options {
	opt := harness.DefaultOptions()
	opt.Params.Seed = seed
	return opt
}

// fig5Jobs is the job list of Runner.Figure5: per workload, the
// sequential baseline and then every Figure5System at every thread count.
func fig5Jobs(seed uint64, s harness.Scale) []harness.Job {
	opt := options(seed)
	var jobs []harness.Job
	for _, f := range harness.Benchmarks(s) {
		jobs = append(jobs, harness.Job{System: harness.Sequential, Factory: f, Threads: 1, Opt: opt})
		for _, sys := range harness.Figure5Systems {
			for _, t := range harness.ThreadCounts(s) {
				jobs = append(jobs, harness.Job{System: sys, Factory: f, Threads: t, Opt: opt})
			}
		}
	}
	return jobs
}

// oltpSeedOffset maps the benchmark seed to oltp.Config.Seed, so that
// seed 1 gives tmsim's default trace seed, 11.
const oltpSeedOffset = 10

// oltpJobs is the job list of Runner.OLTP under DefaultOLTPSweep: the
// load axis, then the skew and mix axes at the middle load, each point on
// every OLTPSystem, with the txstats and contention recorders on.
func oltpJobs(seed uint64, s harness.Scale) []harness.Job {
	opt := options(seed)
	opt.TxStats = true
	opt.Contention = true
	base := harness.OLTPBenchmark(s).New().(*oltp.Workload).Config()
	base.Seed = seed + oltpSeedOffset
	var cells []oltp.Config
	for _, g := range harness.OLTPLoadGaps(s) {
		c := base
		c.MeanGap = g
		cells = append(cells, c)
	}
	for _, th := range harness.OLTPSkewThetas(s) {
		c := base
		c.Theta = th
		cells = append(cells, c)
	}
	for _, mx := range harness.OLTPMixes(s) {
		c := base
		c.ReadPct, c.RMWPct, c.ScanPct = mx[0], mx[1], mx[2]
		cells = append(cells, c)
	}
	threads := harness.OLTPThreads(s)
	var jobs []harness.Job
	for _, cfg := range cells {
		f := harness.WorkloadFactory{Name: "oltp", New: func() stamp.Workload { return oltp.New(cfg) }}
		for _, sys := range harness.OLTPSystems {
			jobs = append(jobs, harness.Job{System: sys, Factory: f, Threads: threads, Opt: opt})
		}
	}
	return jobs
}

// scaleJobs is the job list of Runner.ScaleSweep: the sequential
// baseline, then every ScaleSystem at every ScaleProcCounts count.
func scaleJobs(seed uint64, s harness.Scale) []harness.Job {
	opt := options(seed)
	f := harness.ScaleBenchmark(s)
	jobs := []harness.Job{{System: harness.Sequential, Factory: f, Threads: 1, Opt: opt}}
	for _, sys := range harness.ScaleSystems {
		for _, p := range harness.ScaleProcCounts(s) {
			jobs = append(jobs, harness.Job{System: sys, Factory: f, Threads: p, Opt: opt})
		}
	}
	return jobs
}
