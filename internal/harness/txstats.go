package harness

import (
	"fmt"
	"io"

	"repro/internal/txstats"
)

// TxStatsSchemaVersion identifies the sweep transaction-lifecycle report
// JSON schema.
const TxStatsSchemaVersion = "tmsim-txstats/v1"

// CellTxStats is one sweep cell's identity plus its frozen
// transaction-lifecycle report.
type CellTxStats struct {
	Cell
	TxStats *txstats.Report `json:"txstats"`
}

// TxStatsReport accumulates per-cell lifecycle reports across one or
// more sweeps. Fed from Runner.Collect it is filled in job order, so for
// a fixed experiment sequence its encodings are byte-identical for every
// worker count — the same determinism contract as MetricsReport and
// ContentionReport. It is not safe for concurrent use; the Runner
// serializes Collect invocations.
type TxStatsReport struct {
	Cells []CellTxStats
}

// Collector returns a Runner.Collect callback appending into the report.
// Cells run without Options.TxStats contribute a nil report (rendered as
// "no txstats data" rather than dropped, so cell counts line up).
func (rep *TxStatsReport) Collector() func(Job, Result) {
	return func(_ Job, res Result) {
		rep.Cells = append(rep.Cells, CellTxStats{cellOf(res), res.TxStats})
	}
}

// Aggregate merges every cell's report: counts, cycle splits, and the
// abort breakdown sum; the latency and attempts histograms merge
// bucket-wise with percentiles recomputed (see txstats.Report.Add).
func (rep *TxStatsReport) Aggregate() *txstats.Report {
	agg := &txstats.Report{}
	for _, c := range rep.Cells {
		agg.Add(c.TxStats)
	}
	return agg
}

// WriteJSON writes the report — schema tag, per-cell reports in sweep
// order, and the aggregate — as indented JSON followed by a newline.
func (rep *TxStatsReport) WriteJSON(w io.Writer) error {
	return writeCells(w, TxStatsSchemaVersion, rep.Cells, rep.Aggregate())
}

// ReadTxStatsReport parses a report written by WriteJSON, for offline
// reprocessing.
func ReadTxStatsReport(r io.Reader) (*TxStatsReport, error) {
	cells, err := readCells[CellTxStats](r, TxStatsSchemaVersion)
	if err != nil {
		return nil, err
	}
	return &TxStatsReport{Cells: cells}, nil
}

// Latency runs the `-experiment latency` sweep: the Figure 5 workloads ×
// systems × thread counts with per-transaction lifecycle accounting
// enabled. The recorder never perturbs simulated cycles, so the speedup
// numbers match a plain Figure5 run exactly; the extra yield is each
// cell's latency distribution and wasted-work attribution (collect them
// with TxStatsReport.Collector on the Runner).
func (r *Runner) Latency(opt Options, scale Scale) ([]Figure5Data, error) {
	opt.TxStats = true
	return r.Sweep(Benchmarks(scale), Figure5Systems, opt, scale)
}

// PrintLatency renders the latency experiment as text tables: one row
// per (system, threads) cell with commit counts, latency percentiles in
// simulated cycles, mean attempts per commit, and the share of
// transactional cycles that was wasted (aborted attempts + backoff).
func PrintLatency(w io.Writer, data []Figure5Data, scale Scale) {
	for _, d := range data {
		fmt.Fprintf(w, "\nLatency — %s (simulated cycles per committed transaction)\n", d.Workload)
		fmt.Fprintf(w, "%-14s %5s %9s %9s %9s %9s %9s %8s %7s\n",
			"system", "p", "commits", "P50", "P90", "P99", "P99.9", "attempts", "wasted")
		for _, sys := range Figure5Systems {
			for _, t := range ThreadCounts(scale) {
				res, ok := d.Cells[sys][t]
				if !ok || res.TxStats == nil {
					continue
				}
				ts := res.TxStats
				var p50, p90, p99, p999 float64
				if pc := ts.LatencyPercentiles; pc != nil {
					p50, p90, p99, p999 = pc.P50, pc.P90, pc.P99, pc.P999
				}
				meanAttempts := 0.0
				if ts.Attempts != nil && ts.Attempts.Count > 0 {
					meanAttempts = float64(ts.Attempts.Sum) / float64(ts.Attempts.Count)
				}
				fmt.Fprintf(w, "%-14s %5d %9d %9.0f %9.0f %9.0f %9.0f %8.2f %6.1f%%\n",
					sys, t, ts.Committed, p50, p90, p99, p999, meanAttempts, 100*ts.WastedShare())
			}
		}
	}
}
