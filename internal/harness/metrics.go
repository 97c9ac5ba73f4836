package harness

import (
	"io"

	"repro/internal/obs"
)

// ReportSchemaVersion identifies the sweep metrics report JSON schema.
const ReportSchemaVersion = "tmsim-metrics-report/v1"

// CellMetrics is one sweep cell's identity plus its metrics snapshot.
type CellMetrics struct {
	Cell
	Metrics *obs.Snapshot `json:"metrics"`
}

// MetricsReport accumulates per-cell metrics across one or more sweeps.
// Fed from Runner.Collect it is filled in job order, so for a fixed
// experiment sequence its JSON encoding is byte-identical for every
// worker count. It is not safe for concurrent use; the Runner serializes
// Collect invocations.
type MetricsReport struct {
	Cells []CellMetrics
}

// Collector returns a Runner.Collect callback appending into the report.
func (rep *MetricsReport) Collector() func(Job, Result) {
	return func(_ Job, res Result) {
		rep.Cells = append(rep.Cells, CellMetrics{cellOf(res), res.Metrics})
	}
}

// Aggregate merges every cell's snapshot: counters and gauges sum,
// histograms merge bucket-wise. Merging in cell order over commutative
// sums keeps the aggregate deterministic.
func (rep *MetricsReport) Aggregate() *obs.Snapshot {
	agg := obs.NewRegistry().Snapshot()
	for _, c := range rep.Cells {
		if c.Metrics != nil {
			agg.Add(c.Metrics)
		}
	}
	return agg
}

// WriteJSON writes the report — schema tag, per-cell snapshots in sweep
// order, and the aggregate — as indented JSON followed by a newline.
func (rep *MetricsReport) WriteJSON(w io.Writer) error {
	return writeCells(w, ReportSchemaVersion, rep.Cells, rep.Aggregate())
}

// ReadMetricsReport parses a report written by WriteJSON, for offline
// reprocessing (EXPERIMENTS.md shows how to regenerate figure numbers
// from an archived report instead of rerunning the simulator). It
// rejects any schema tag but ReportSchemaVersion.
func ReadMetricsReport(r io.Reader) (*MetricsReport, error) {
	cells, err := readCells[CellMetrics](r, ReportSchemaVersion)
	if err != nil {
		return nil, err
	}
	return &MetricsReport{Cells: cells}, nil
}

// FindWorkload looks a workload factory up by name across the paper and
// extension benchmark sets at the given scale.
func FindWorkload(name string, scale Scale) (WorkloadFactory, bool) {
	all := append(Benchmarks(scale), ExtendedBenchmarks(scale)...)
	for _, f := range append(all, ScaleBenchmark(scale), OLTPBenchmark(scale)) {
		if f.Name == name {
			return f, true
		}
	}
	return WorkloadFactory{}, false
}
