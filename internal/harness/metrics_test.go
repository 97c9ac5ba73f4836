package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/tm"
)

// sweepJobs is a small but representative job set: two workloads, a
// hybrid and a pure-software system, two thread counts.
func sweepJobs(t *testing.T) []Job {
	t.Helper()
	opt := testOptions()
	var jobs []Job
	for _, name := range []string{"kmeans-low", "genome"} {
		f, ok := FindWorkload(name, ScaleSmall)
		if !ok {
			t.Fatalf("workload %q not found", name)
		}
		for _, sys := range []SystemKind{UFOHybrid, USTM} {
			for _, threads := range []int{1, 2} {
				jobs = append(jobs, Job{System: sys, Factory: f, Threads: threads, Opt: opt})
			}
		}
	}
	return jobs
}

// TestMetricsReportDeterministicAcrossWorkers is the acceptance-criteria
// regression: the full metrics JSON (per-cell snapshots + aggregate)
// must be byte-identical between a serial and a parallel sweep.
func TestMetricsReportDeterministicAcrossWorkers(t *testing.T) {
	render := func(workers int) []byte {
		var rep MetricsReport
		r := Parallel(workers)
		r.Collect = rep.Collector()
		if _, err := r.Execute(sweepJobs(t)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("metrics report differs between -parallel=1 and -parallel=8")
	}
}

// TestResultMetricsMatchLegacyCounters: the registry snapshot must agree
// with the fields it mirrors, so the schema can never drift from the
// counters the paper's tables are printed from.
func TestResultMetricsMatchLegacyCounters(t *testing.T) {
	f, _ := FindWorkload("kmeans-low", ScaleSmall)
	res := Run(UFOHybrid, f.New(), 2, testOptions())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	s := res.Metrics
	if s == nil {
		t.Fatal("Result.Metrics is nil")
	}
	checks := []struct {
		metric string
		want   uint64
	}{
		{tm.MetricHWCommits, res.Stats.HWCommits},
		{tm.MetricSWCommits, res.Stats.SWCommits},
		{tm.MetricFailovers, res.Stats.Failovers},
		{tm.MetricSWAborts, res.Stats.SWAborts},
		{tm.MetricSWStalls, res.Stats.SWStalls},
		{tm.MetricNTStalls, res.Stats.NTStalls},
		{tm.MetricRetries, res.Stats.Retries},
		{tm.MetricHWRetries, res.Stats.HWRetries},
		{machine.MetricCycles, res.Cycles},
		{machine.MetricHWCommits, res.Machine.HWCommits},
		{machine.MetricNacks, res.Machine.Nacks},
		{machine.MetricUFOFaults, res.Machine.UFOFaults},
		{machine.MetricUFOKillsTrue, res.Machine.UFOKillsTrue},
		{machine.MetricUFOKillsFalse, res.Machine.UFOKillsFalse},
		{machine.MetricSTMOlder, res.Machine.ConflictSTMOlder},
		{machine.MetricHTMOlder, res.Machine.ConflictHTMOlder},
	}
	for _, c := range checks {
		m := s.Get(c.metric)
		if m == nil {
			t.Errorf("metric %q missing from snapshot", c.metric)
			continue
		}
		if m.Value != c.want {
			t.Errorf("%s = %d, want %d", c.metric, m.Value, c.want)
		}
	}
	for reason := 1; reason < machine.NumAbortReasons; reason++ {
		name := machine.MetricAbortPrefix + machine.AbortReason(reason).String()
		m := s.Get(name)
		if m == nil {
			t.Errorf("metric %q missing", name)
			continue
		}
		if m.Value != res.Machine.HWAbortsByReason[reason] {
			t.Errorf("%s = %d, want %d", name, m.Value, res.Machine.HWAbortsByReason[reason])
		}
	}
	// Footprint histograms import losslessly.
	hw := s.Get(machine.MetricHWFootprint)
	want := res.Machine.HWFootprint.Snapshot()
	if hw == nil || hw.Hist.Count != want.Count || hw.Hist.Sum != want.Sum {
		t.Errorf("hw footprint hist = %+v, want count=%d sum=%d", hw, want.Count, want.Sum)
	}
	// Per-processor breakdowns exist for both procs and sum to the totals.
	var hits uint64
	for _, pp := range []string{"machine.proc.00.", "machine.proc.01."} {
		for _, leaf := range []string{"cycles", "l1_hits", "l1_misses"} {
			m := s.Get(pp + leaf)
			if m == nil {
				t.Fatalf("metric %q missing", pp+leaf)
			}
			if leaf == "l1_hits" {
				hits += m.Value
			}
		}
	}
	if total := s.Get(machine.MetricL1Hits); total == nil || total.Value != hits {
		t.Errorf("l1 hit total %v does not match per-proc sum %d", total, hits)
	}
}

// TestMetricsReportAggregate: the aggregate is the cell-wise sum.
func TestMetricsReportAggregate(t *testing.T) {
	var rep MetricsReport
	r := Serial()
	r.Collect = rep.Collector()
	f, _ := FindWorkload("kmeans-low", ScaleSmall)
	opt := testOptions()
	jobs := []Job{
		{System: UFOHybrid, Factory: f, Threads: 1, Opt: opt},
		{System: UFOHybrid, Factory: f, Threads: 2, Opt: opt},
	}
	results, err := r.Execute(jobs)
	if err != nil {
		t.Fatal(err)
	}
	agg := rep.Aggregate()
	want := results[0].Stats.HWCommits + results[1].Stats.HWCommits
	if got := agg.Get(tm.MetricHWCommits); got == nil || got.Value != want {
		t.Fatalf("aggregate hw commits = %v, want %d", got, want)
	}
}

// TestMetricsReportRoundTrip: a written report can be re-read for
// offline reprocessing, preserving every cell.
func TestMetricsReportRoundTrip(t *testing.T) {
	var rep MetricsReport
	r := Serial()
	r.Collect = rep.Collector()
	f, _ := FindWorkload("kmeans-low", ScaleSmall)
	if _, err := r.Execute([]Job{{System: USTM, Factory: f, Threads: 2, Opt: testOptions()}}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ReportSchemaVersion) {
		t.Fatalf("report missing schema tag:\n%s", buf.String())
	}
	back, err := ReadMetricsReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != 1 || back.Cells[0].Workload != "kmeans-low" || back.Cells[0].Threads != 2 {
		t.Fatalf("round-tripped cells = %+v", back.Cells)
	}
	if got := back.Cells[0].Metrics.Get(tm.MetricSWCommits); got == nil || got.Value != rep.Cells[0].Metrics.Get(tm.MetricSWCommits).Value {
		t.Fatalf("round-tripped metric = %+v", got)
	}
}

// TestReadMetricsReportRejectsOtherSchemas: a report with another
// schema tag (here a contention report, whose cells would otherwise
// decode with nil Metrics) or with none is an error, not empty cells.
func TestReadMetricsReportRejectsOtherSchemas(t *testing.T) {
	var cr ContentionReport
	var buf bytes.Buffer
	if err := cr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string]string{
		"contention report": buf.String(),
		"contention cell":   `{"schema":"` + ContentionSchemaVersion + `","cells":[{"workload":"genome","system":"ustm","threads":2}]}`,
		"no schema":         `{"cells":[]}`,
	} {
		if rep, err := ReadMetricsReport(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: read as a metrics report with cells %+v, want a schema error", name, rep.Cells)
		} else if !strings.Contains(err.Error(), "schema") {
			t.Errorf("%s: error %q does not name the schema", name, err)
		}
	}
}
