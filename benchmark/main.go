// Command tmbenchmark is the repository benchmark: it times whole
// simulator sweeps end to end and explains the time layer by layer,
// observing the simulator only from outside through its public sweep
// API. See README.md for the workloads, the metrics and how to read the
// traced output.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload fig5-full --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/harness"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: fig5-full, oltp-sweep or scale-256")
	seed := flag.Uint64("seed", 1, "input seed: machine.Params.Seed, and oltp.Config.Seed minus 10")
	secs := flag.Int("seconds", 30, "measuring time; a run always completes at least one pass")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, err := findWorkload(*workloadName)
	if err == nil && *secs < 1 {
		err = fmt.Errorf("-seconds %d: want >= 1", *secs)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmbenchmark:", err)
		os.Exit(2)
	}
	budget := time.Duration(*secs) * time.Second
	jobs := func() []harness.Job { return w.jobs(*seed, harness.ScaleFull) }
	if err := run(os.Stdout, w.name, *seed, jobs, budget, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "tmbenchmark:", err)
		os.Exit(1)
	}
}

// run measures one workload and writes the metric table and the result
// line to out.
func run(out io.Writer, name string, seed uint64, jobs func() []harness.Job, budget time.Duration, traced bool) error {
	var all []pass
	var metrics []metric
	if !traced {
		all = runPasses(jobs, false, budget)
		metrics = endToEnd(all)
	} else {
		// 45% of the budget untraced for reference, 45% traced under the
		// CPU profile, the rest for the layer probes.
		ref := runPasses(jobs, false, budget*45/100)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		tr := runPasses(jobs, true, budget*45/100)
		pprof.StopCPUProfile()
		f, err := foldProfile(prof.Bytes())
		if err != nil {
			return err
		}
		probe := runProbes()
		metrics = layers(ref, tr, f, probe, peakRSSMB())
		all = append(ref, tr...)
		printFold(out, f)
	}

	attempted, failed := 0, 0
	for _, p := range all {
		attempted += len(p.results)
		failed += p.failed()
		for _, r := range p.results {
			if r.Err != nil {
				fmt.Fprintf(out, "# FAILED %s on %s with %d threads: %v\n", r.Workload, r.System, r.Threads, r.Err)
			}
		}
	}
	det := deterministic(all)
	if !det {
		fmt.Fprintln(out, "# FAILED passes disagree on the simulated outcome")
	}
	fmt.Fprintf(out, "# %s seed %d: %d passes, %d cells, %d failed\n", name, seed, len(all), attempted, failed)
	for _, m := range metrics {
		line := fmt.Sprintf("%-34s %16.6g %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(out, line)
	}
	return writeResult(out, failed == 0 && det, attempted, failed, metrics)
}

// writeResult prints the result line. wall_s and fail_frac are only in
// the table: wall time on a shared host swings with other guests' load,
// and fail_frac is usually 0, which a relative bound cannot judge; the
// failed count carries it.
func writeResult(out io.Writer, correct bool, attempted, failed int, metrics []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, map[string]value{}}
	for _, m := range metrics {
		if m.name != "fail_frac" && m.name != "wall_s" {
			res.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// printFold prints each bucket's share of CPU samples and its hottest
// leaf functions.
func printFold(out io.Writer, f *fold) {
	fmt.Fprintf(out, "# CPU profile of the traced passes: %d samples, by bucket\n", f.total)
	var names []string
	for b := range f.buckets {
		names = append(names, b)
	}
	sortByCount(names, f.buckets)
	for _, b := range names {
		fmt.Fprintf(out, "#   %-10s %5.1f%%  %v\n", b, 100*f.share(b), f.topLeaves(b, 3))
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports kilobytes
}
