package harness_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/conformance/litmus"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/oltp"
	"repro/internal/perf"
	"repro/internal/txstats"
)

// envelopeKind is one tmsim-*/v1 report format: its schema tag, a small
// report's writer, and a reader returning the decoded report's writer.
type envelopeKind struct {
	schema string
	write  func(io.Writer) error
	read   func(io.Reader) (func(io.Writer) error, error)
}

// envelopeKinds builds one small report of each of the seven formats.
// The three per-cell sweep reports hold a real cell (conflict
// attribution and lifecycle accounting on) and a failed copy of it, so
// the err field is exercised too.
func envelopeKinds(t *testing.T) []envelopeKind {
	t.Helper()
	opt := harness.DefaultOptions()
	opt.Params.MemBytes = 1 << 24
	opt.OTableRows = 1 << 13
	opt.Contention = true
	opt.TimeSeriesWindow = 50_000
	opt.TxStats = true
	f, _ := harness.FindWorkload("kmeans-low", harness.ScaleSmall)
	res := harness.Run(harness.USTM, f.New(), 2, opt)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	failed := res
	failed.Err = errors.New("validation failed")

	var mrep harness.MetricsReport
	var crep harness.ContentionReport
	var trep harness.TxStatsReport
	for _, collect := range []func(harness.Job, harness.Result){mrep.Collector(), crep.Collector(), trep.Collector()} {
		collect(harness.Job{}, res)
		collect(harness.Job{}, failed)
	}

	orep := &harness.OLTPReport{
		Schema: harness.OLTPSchemaVersion, Arrival: oltp.ArrivalPoisson, Threads: 2,
		Keys: 256, RequestsPerProc: 40, ScanLen: 8, Seed: 11,
		KneeUtilization: harness.OLTPKneeUtilization,
		Points: []harness.OLTPPoint{{
			Axis: "load", System: harness.TL2, Threads: 2, MeanGap: 500, Theta: 0.9,
			ReadPct: 80, RMWPct: 15, ScanPct: 5, Requests: 80, Committed: 80, Cycles: 91_234,
			Offered: 1.25, Goodput: 0.876, Utilization: 0.7008,
			Response:     &txstats.Percentiles{P50: 812, P90: 1900.5, P99: 4011, P999: 5120},
			QueueWaitP99: 377.25, WastedShare: res.TxStats.WastedShare(),
		}},
		Knees: []harness.OLTPKnee{{System: harness.TL2, Detected: true, MeanGap: 500, Offered: 1.25, Goodput: 0.876, Utilization: 0.7008}},
	}
	brep := perf.NewReport("2026-08-05")
	brep.Add(perf.Entry{Name: "Figure5Sweep", Iterations: 3, NsPerOp: 1.5e9, AllocsPerOp: 1e5, SimCyclesPerOp: 4.2e7})
	lrep := &litmus.Report{
		Schema: litmus.ReportSchema, Systems: []string{"tl2"}, Gaps: []uint64{0, 7}, OrderCap: 24,
		Programs: []litmus.ProgramReport{{
			Name: "sb", Source: "curated", Oracle: []string{"r0=0 r1=1"}, Orders: 2, OrderSpc: 2, Schedules: 4,
			Systems: []litmus.SystemVerdict{{System: "tl2", Class: "serializable", Observed: []string{"r0=0 r1=1"}, AtomicOK: true, WeakOK: true, Pass: true}},
		}},
	}

	// decode reads a report with obs.ReadReport into a fresh value that
	// rewrites through its own writer.
	decode := func(schema string, v any, rewrite func(io.Writer) error) func(io.Reader) (func(io.Writer) error, error) {
		return func(r io.Reader) (func(io.Writer) error, error) {
			return rewrite, obs.ReadReport(r, schema, v)
		}
	}
	var snap obs.Snapshot
	var oback harness.OLTPReport
	var bback perf.Report
	var lback litmus.Report
	return []envelopeKind{
		{obs.SchemaVersion, res.Metrics.WriteJSON, decode(obs.SchemaVersion, &snap, snap.WriteJSON)},
		{harness.ReportSchemaVersion, mrep.WriteJSON, func(r io.Reader) (func(io.Writer) error, error) {
			back, err := harness.ReadMetricsReport(r)
			if err != nil {
				return nil, err
			}
			return back.WriteJSON, nil
		}},
		{harness.ContentionSchemaVersion, crep.WriteJSON, func(r io.Reader) (func(io.Writer) error, error) {
			back, err := harness.ReadContentionReport(r)
			if err != nil {
				return nil, err
			}
			return back.WriteJSON, nil
		}},
		{harness.TxStatsSchemaVersion, trep.WriteJSON, func(r io.Reader) (func(io.Writer) error, error) {
			back, err := harness.ReadTxStatsReport(r)
			if err != nil {
				return nil, err
			}
			return back.WriteJSON, nil
		}},
		{harness.OLTPSchemaVersion, orep.WriteJSON, decode(harness.OLTPSchemaVersion, &oback, oback.WriteJSON)},
		{perf.Schema, func(w io.Writer) error { return obs.WriteReport(w, brep) },
			decode(perf.Schema, &bback, func(w io.Writer) error { return obs.WriteReport(w, &bback) })},
		{litmus.ReportSchema, lrep.WriteJSON, decode(litmus.ReportSchema, &lback, lback.WriteJSON)},
	}
}

// TestReportEnvelope: every tmsim-*/v1 report is written in the
// envelope's form, reads back through obs.ReadReport and rewrites to the
// same bytes, and a document carrying any other kind's schema tag is
// rejected by the kind's reader.
func TestReportEnvelope(t *testing.T) {
	kinds := envelopeKinds(t)
	if len(kinds) != 7 {
		t.Fatalf("%d report kinds, want 7", len(kinds))
	}
	docs := make([][]byte, len(kinds))
	for i, k := range kinds {
		var buf bytes.Buffer
		if err := k.write(&buf); err != nil {
			t.Fatalf("%s: write: %v", k.schema, err)
		}
		docs[i] = buf.Bytes()
		// The envelope's form: the schema tag first, indented, and a
		// trailing newline.
		if head := "{\n  \"schema\": \"" + k.schema + "\","; !bytes.HasPrefix(docs[i], []byte(head)) || !bytes.HasSuffix(docs[i], []byte("}\n")) {
			t.Errorf("%s: document does not open with %q and end in a newline", k.schema, head)
		}
	}
	for i, k := range kinds {
		t.Run(k.schema, func(t *testing.T) {
			rewrite, err := k.read(bytes.NewReader(docs[i]))
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			var again bytes.Buffer
			if err := rewrite(&again); err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			if !bytes.Equal(docs[i], again.Bytes()) {
				t.Errorf("rewrite differs from the original (%d vs %d bytes)", again.Len(), len(docs[i]))
			}
			for j, other := range kinds {
				if j == i {
					continue
				}
				if _, err := k.read(bytes.NewReader(docs[j])); err == nil {
					t.Errorf("read a %s document as %s", other.schema, k.schema)
				}
			}
		})
	}
}
