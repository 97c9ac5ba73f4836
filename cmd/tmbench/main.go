// Command tmbench runs the benchmark-regression suite (internal/perf)
// and optionally gates against a baseline report:
//
//	tmbench -out base.json                             # time the base build
//	tmbench -baseline base.json -gate                  # gate this build on it
//	tmbench -bench 'fig5/genome' -benchtime 2s         # one cell, longer
//
// The gate fails (exit 1) when an entry matching -gate-pattern regresses
// beyond -tolerance in ns/op versus the baseline, or has disappeared from
// the suite. All other entries are reported informationally. CI times
// the base commit and the change on one runner; see EXPERIMENTS.md
// ("Benchmark suite and regression gate").
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"time"

	"repro/internal/perf"
)

func main() {
	out := flag.String("out", "", "write the report to this path")
	baseline := flag.String("baseline", "", "baseline report to compare against")
	gate := flag.Bool("gate", false, "exit 1 on gated regressions vs -baseline")
	gatePattern := flag.String("gate-pattern", "^"+perf.GateBenchmark+"$", "regexp selecting gated entries")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional ns/op growth on gated entries")
	benchFilter := flag.String("bench", "", "regexp selecting which benchmarks to run (default: all)")
	benchtime := flag.Duration("benchtime", time.Second, "minimum measurement time per benchmark")
	list := flag.Bool("list", false, "list benchmark names and exit")
	flag.Parse()

	// Validate the comparison inputs before spending minutes measuring.
	var base *perf.Report
	var gateRe *regexp.Regexp
	if *baseline != "" {
		var err error
		if base, err = perf.ReadFile(*baseline); err != nil {
			fatalf("reading baseline: %v", err)
		}
		if gateRe, err = regexp.Compile(*gatePattern); err != nil {
			fatalf("bad -gate-pattern: %v", err)
		}
	}

	benches := perf.Suite()
	if *benchFilter != "" {
		re, err := regexp.Compile(*benchFilter)
		if err != nil {
			fatalf("bad -bench pattern: %v", err)
		}
		var kept []perf.Bench
		for _, b := range benches {
			if re.MatchString(b.Name) {
				kept = append(kept, b)
			}
		}
		benches = kept
	}
	if *list {
		for _, b := range benches {
			fmt.Println(b.Name)
		}
		return
	}
	if len(benches) == 0 {
		fatalf("no benchmarks match")
	}

	date := time.Now().UTC().Format("2006-01-02")
	report := perf.RunSuite(benches, *benchtime, date, func(name string) {
		fmt.Fprintf(os.Stderr, "bench %s...\n", name)
	})
	for _, e := range report.Entries {
		fmt.Printf("%-40s %12d ns/op %10.0f allocs/op %14.0f sim-cycles/sec\n",
			e.Name, int64(e.NsPerOp), e.AllocsPerOp, e.SimCyclesPerSec)
	}

	if *out != "" {
		if err := report.WriteFile(*out); err != nil {
			fatalf("writing report: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}

	if base != nil {
		deltas := perf.Compare(base, report, gateRe, *tolerance)
		fmt.Print(perf.Format(deltas, *tolerance))
		if regs := perf.Regressions(deltas); len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "FAIL: %d gated benchmark(s) regressed beyond +%.0f%%\n",
				len(regs), *tolerance*100)
			if *gate {
				os.Exit(1)
			}
		} else {
			fmt.Fprintln(os.Stderr, "gate ok")
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tmbench: "+format+"\n", args...)
	os.Exit(1)
}
