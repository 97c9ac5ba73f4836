package harness

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// Cell is one sweep cell's identity as every per-cell report records
// it. The report cell types embed it untagged, so its fields sit flat
// beside the cell's payload in the JSON.
type Cell struct {
	Workload string     `json:"workload"`
	System   SystemKind `json:"system"`
	Threads  int        `json:"threads"`
	Err      string     `json:"err,omitempty"`
}

// cellOf is the identity of the cell res came from.
func cellOf(res Result) Cell {
	c := Cell{Workload: res.Workload, System: res.System, Threads: res.Threads}
	if res.Err != nil {
		c.Err = res.Err.Error()
	}
	return c
}

// Label renders the cell's coordinates for the text/HTML renderers.
func (c Cell) Label() string {
	return fmt.Sprintf("%s/%s/%d threads", c.Workload, c.System, c.Threads)
}

// reportFile is the on-disk shape of every per-cell sweep report: the
// schema tag, the cells in sweep order, and their aggregate.
type reportFile[C, A any] struct {
	Schema    string `json:"schema"`
	Cells     []C    `json:"cells"`
	Aggregate A      `json:"aggregate"`
}

// writeCells writes a per-cell report; no cells encode as [], not null.
func writeCells[C, A any](w io.Writer, schema string, cells []C, agg A) error {
	if cells == nil {
		cells = []C{}
	}
	return obs.WriteReport(w, reportFile[C, A]{Schema: schema, Cells: cells, Aggregate: agg})
}

// readCells reads back the cells of a report written by writeCells,
// rejecting any schema tag but schema. The aggregate is not read: it is
// recomputed from the cells.
func readCells[C any](r io.Reader, schema string) ([]C, error) {
	var f struct {
		Cells []C `json:"cells"`
	}
	err := obs.ReadReport(r, schema, &f)
	return f.Cells, err
}
