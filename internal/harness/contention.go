package harness

import (
	"io"

	"repro/internal/contention"
)

// ContentionSchemaVersion identifies the sweep contention report JSON
// schema.
const ContentionSchemaVersion = "tmsim-contention-report/v1"

// CellContention is one sweep cell's identity plus its frozen
// conflict-attribution report.
type CellContention struct {
	Cell
	Contention *contention.Report `json:"contention"`
}

// ContentionReport accumulates per-cell contention reports across one or
// more sweeps. Fed from Runner.Collect it is filled in job order, so for
// a fixed experiment sequence its encodings are byte-identical for every
// worker count — the same determinism contract as MetricsReport. It is
// not safe for concurrent use; the Runner serializes Collect invocations.
type ContentionReport struct {
	Cells []CellContention
}

// Collector returns a Runner.Collect callback appending into the report.
// Cells run without Options.Contention contribute a nil report (rendered
// as "no contention data" rather than dropped, so cell counts line up).
func (rep *ContentionReport) Collector() func(Job, Result) {
	return func(_ Job, res Result) {
		rep.Cells = append(rep.Cells, CellContention{cellOf(res), res.Contention})
	}
}

// Aggregate merges every cell's headline totals (edge counts, per-reason
// counts, commits, the aggressor→victim matrix) into one report; hot
// lines and windows stay per-cell (see contention.Report.Add).
func (rep *ContentionReport) Aggregate() *contention.Report {
	agg := &contention.Report{}
	for _, c := range rep.Cells {
		agg.Add(c.Contention)
	}
	return agg
}

// WriteJSON writes the report — schema tag, per-cell reports in sweep
// order, and the aggregate — as indented JSON followed by a newline.
func (rep *ContentionReport) WriteJSON(w io.Writer) error {
	return writeCells(w, ContentionSchemaVersion, rep.Cells, rep.Aggregate())
}

// cells converts to the renderer's labeled-cell form.
func (rep *ContentionReport) cells() []contention.Cell {
	out := make([]contention.Cell, len(rep.Cells))
	for i, c := range rep.Cells {
		label := c.Label()
		if c.Err != "" {
			label += " (FAILED: " + c.Err + ")"
		}
		out[i] = contention.Cell{Label: label, Report: c.Contention}
	}
	return out
}

// WriteText renders the report as plain text (contention.WriteText).
func (rep *ContentionReport) WriteText(w io.Writer) error {
	return contention.WriteText(w, rep.cells())
}

// WriteHTML renders the report as one self-contained HTML document
// (contention.WriteHTML): no scripts, no external assets.
func (rep *ContentionReport) WriteHTML(w io.Writer) error {
	return contention.WriteHTML(w, rep.cells())
}

// ReadContentionReport parses a report written by WriteJSON, for offline
// reprocessing.
func ReadContentionReport(r io.Reader) (*ContentionReport, error) {
	cells, err := readCells[CellContention](r, ContentionSchemaVersion)
	if err != nil {
		return nil, err
	}
	return &ContentionReport{Cells: cells}, nil
}
