package perf

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/sim"
)

// GateBenchmark is the entry the CI regression gate protects: the full
// small-scale Figure 5 sweep, mirroring BenchmarkFigure5Sweep in
// internal/harness. One op = every workload x every Figure 5 system x
// every small thread count.
const GateBenchmark = "Figure5Sweep"

// SuiteOptions mirrors the harness test configuration: small enough for
// CI, big enough to exercise every system's hot paths.
func SuiteOptions() harness.Options {
	opt := harness.DefaultOptions()
	opt.Params.MemBytes = 1 << 24
	opt.OTableRows = 1 << 13
	return opt
}

// Suite returns the benchmark suite: the gated full sweep, one
// workload-x-system cell benchmark per Figure 5 pair (at the largest
// small-scale thread count), and the engine handoff microbenchmarks at
// 2 and 256 procs.
func Suite() []Bench {
	opt := SuiteOptions()
	scale := harness.ScaleSmall
	threadCounts := harness.ThreadCounts(scale)
	maxThreads := threadCounts[len(threadCounts)-1]

	benches := []Bench{{
		Name: GateBenchmark,
		Op: func() uint64 {
			var cycles uint64
			for _, f := range harness.Benchmarks(scale) {
				for _, sys := range harness.Figure5Systems {
					for _, threads := range threadCounts {
						cycles += runCell(sys, f, threads, opt)
					}
				}
			}
			return cycles
		},
	}}

	// The same sweep with per-transaction lifecycle accounting enabled:
	// the ns/op ratio against the gated entry is what -txstats-out costs.
	// Informational, not gated — the gate pattern anchors on Figure5Sweep
	// exactly, and the disabled-path cost of the lifecycle hooks is
	// bounded by the gated entry itself (they reduce to a nil check when
	// no recorder is attached).
	topt := opt
	topt.TxStats = true
	benches = append(benches, Bench{
		Name: "Figure5Sweep/txstats",
		Op: func() uint64 {
			var cycles uint64
			for _, f := range harness.Benchmarks(scale) {
				for _, sys := range harness.Figure5Systems {
					for _, threads := range threadCounts {
						cycles += runCell(sys, f, threads, topt)
					}
				}
			}
			return cycles
		},
	})

	for _, f := range harness.Benchmarks(scale) {
		for _, sys := range harness.Figure5Systems {
			f, sys := f, sys
			benches = append(benches, Bench{
				Name: fmt.Sprintf("fig5/%s/%s/t%d", f.Name, sys, maxThreads),
				Op:   func() uint64 { return runCell(sys, f, maxThreads, opt) },
			})
		}
	}

	// The largest scalemix cell under the single-token engine, the only
	// one there is; the name keeps pairing with earlier baselines.
	// Informational, not gated.
	scaleF := harness.ScaleBenchmark(scale)
	scaleProcs := harness.ScaleProcCounts(scale)
	scaleMax := scaleProcs[len(scaleProcs)-1]
	benches = append(benches, Bench{
		Name: fmt.Sprintf("scale/%s/%s/t%d/single-token", scaleF.Name, harness.UFOHybrid, scaleMax),
		Op:   func() uint64 { return runCell(harness.UFOHybrid, scaleF, scaleMax, opt) },
	})

	// Service-workload entries: the whole small oltp sweep (all three
	// axes x all systems, the -experiment oltp hot path) plus one
	// per-system cell at the default sweep shape. Informational for now —
	// ungated until a few BENCH_*.json snapshots establish how noisy the
	// open-loop cells are (the later-gating plan is in EXPERIMENTS.md).
	benches = append(benches, Bench{
		Name: "oltp/sweep",
		Op: func() uint64 {
			rep, err := harness.Serial().OLTP(opt, scale, harness.DefaultOLTPSweep())
			if err != nil {
				panic(fmt.Sprintf("perf: oltp sweep failed: %v", err))
			}
			var cycles uint64
			for _, pt := range rep.Points {
				cycles += pt.Cycles
			}
			return cycles
		},
	})
	oltpF := harness.OLTPBenchmark(scale)
	oltpThreads := harness.OLTPThreads(scale)
	oopt := opt
	oopt.TxStats = true
	for _, sys := range harness.Figure5Systems {
		sys := sys
		benches = append(benches, Bench{
			Name: fmt.Sprintf("oltp/cell/%s/t%d", sys, oltpThreads),
			Op:   func() uint64 { return runCell(sys, oltpF, oltpThreads, oopt) },
		})
	}

	// The engine handoff with procs in lockstep, so every Elapse crosses
	// the horizon and hands the token on: two procs of 200,000 Elapse
	// calls each, and 256 procs sharing 200,000 calls, as the repository
	// benchmark's sim.handoff256_ns probe runs them.
	benches = append(benches,
		Bench{Name: "engine/handoff/t2", Op: func() uint64 { return handoff(2, 200_000) }},
		Bench{Name: "engine/handoff/t256", Op: func() uint64 { return handoff(256, 200_000/256) }},
	)
	return benches
}

// handoff runs procs simulated procs of perProc Elapse(1) calls each and
// returns the simulated cycles.
func handoff(procs, perProc int) uint64 {
	e := sim.New(sim.Config{Procs: procs, MaxSteps: 1 << 62})
	ws := make([]func(*sim.Proc), procs)
	for i := range ws {
		ws[i] = func(p *sim.Proc) {
			for k := 0; k < perProc; k++ {
				p.Elapse(1)
			}
		}
	}
	e.Run(ws)
	return e.Now()
}

func runCell(sys harness.SystemKind, f harness.WorkloadFactory, threads int, opt harness.Options) uint64 {
	res := harness.Run(sys, f.New(), threads, opt)
	if res.Err != nil {
		panic(fmt.Sprintf("perf: %s/%s/%d failed validation: %v", f.Name, sys, threads, res.Err))
	}
	return res.Cycles
}
