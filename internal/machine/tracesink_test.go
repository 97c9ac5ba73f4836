package machine

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mem"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite trace sink golden files")

// goldenEvents is a handcrafted event stream covering every sink corner:
// commit and abort lifecycles on two processors, an abort at address 0
// and a UFO set at address 0 (real zeros — the TraceFlags bugfix), a
// NACK, software-transaction events, an age-0 begin, an orphaned commit
// (begin evicted from a bounded ring), and a transaction left open at the
// end of the stream.
func goldenEvents() []TraceEvent {
	return []TraceEvent{
		{Cycle: 10, Proc: 0, Kind: TraceHWBegin, Age: 1, Flags: FlagAge},
		{Cycle: 12, Proc: 1, Kind: TraceSWBegin, Age: 2, Flags: FlagAge},
		{Cycle: 15, Proc: 0, Kind: TraceNack, Addr: 0x1c0, Age: 1, Flags: FlagAddr | FlagAge},
		{Cycle: 20, Proc: 0, Kind: TraceHWCommit, Age: 1, Flags: FlagAge},
		{Cycle: 22, Proc: 1, Kind: TraceUFOSet, Addr: 0, Flags: FlagAddr},
		{Cycle: 25, Proc: 0, Kind: TraceHWBegin, Age: 3, Flags: FlagAge},
		{Cycle: 28, Proc: 0, Kind: TraceUFOFault, Addr: 0x200, Flags: FlagAddr},
		{Cycle: 30, Proc: 0, Kind: TraceHWAbort, Reason: AbortUFOKill, Addr: 0, Age: 3, Flags: FlagAddr | FlagAge},
		{Cycle: 34, Proc: 1, Kind: TraceSWCommit, Age: 2, Flags: FlagAge},
		{Cycle: 36, Proc: 2, Kind: TraceHWCommit, Age: 4, Flags: FlagAge}, // orphan: begin evicted
		{Cycle: 38, Proc: 1, Kind: TraceHWAbort, Reason: AbortInterrupt, Age: 0, Flags: FlagAge},
		{Cycle: 40, Proc: 2, Kind: TraceHWBegin, Age: 5, Flags: FlagAge}, // left open
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/machine -update-golden` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestJSONLSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, e := range goldenEvents() {
		sink.Event(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// Every line must be valid standalone JSON.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", line, err)
		}
	}
	checkGolden(t, "trace.jsonl.golden", buf.Bytes())
}

func TestChromeSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeSink(&buf)
	for _, e := range goldenEvents() {
		sink.Event(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	// The whole file must be a JSON object with a traceEvents array —
	// the shape Perfetto and about://tracing load.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	// Spans carry ph=X with ts/dur; the open transaction is flushed as
	// truncated at Close.
	var spans, truncated int
	for _, e := range doc.TraceEvents {
		if e["ph"] == "X" {
			spans++
			args := e["args"].(map[string]any)
			if args["outcome"] == "truncated" {
				truncated++
			}
		}
	}
	// Spans: p0 commit, p0 abort, p1 sw commit, p2 truncated-at-close;
	// the orphaned commit and the orphaned abort become instants.
	if spans != 4 || truncated != 1 {
		t.Fatalf("spans=%d truncated=%d, want 4/1", spans, truncated)
	}
	checkGolden(t, "trace.chrome.golden.json", buf.Bytes())
}

// TestChromeSinkTxSpans: tx-begin/tx-commit lifecycle events become
// enclosing "tx" spans carrying the committing path, the attempt count,
// and per-reason abort counts; a tx left open at Close flushes as
// truncated.
func TestChromeSinkTxSpans(t *testing.T) {
	events := []TraceEvent{
		{Cycle: 5, Proc: 0, Kind: TraceTxBegin},
		{Cycle: 6, Proc: 0, Kind: TraceHWBegin, Age: 1, Flags: FlagAge},
		{Cycle: 14, Proc: 0, Kind: TraceHWAbort, Reason: AbortConflict, Age: 1, Flags: FlagAge},
		{Cycle: 20, Proc: 0, Kind: TraceHWBegin, Age: 2, Flags: FlagAge},
		{Cycle: 30, Proc: 0, Kind: TraceHWCommit, Age: 2, Flags: FlagAge},
		{Cycle: 31, Proc: 0, Kind: TraceTxCommit, Path: PathHTM, Flags: FlagPath},
		{Cycle: 40, Proc: 1, Kind: TraceTxBegin}, // left open: truncated at Close
	}
	var buf bytes.Buffer
	sink := NewChromeSink(&buf)
	for _, e := range events {
		sink.Event(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var spans, truncated int
	for _, e := range doc.TraceEvents {
		if e["name"] != "tx" || e["ph"] != "X" {
			continue
		}
		args := e["args"].(map[string]any)
		if args["path"] == "truncated" {
			truncated++
			continue
		}
		spans++
		if args["path"] != "htm" {
			t.Errorf("tx span path = %v, want htm", args["path"])
		}
		if args["attempts"] != float64(2) {
			t.Errorf("tx span attempts = %v, want 2", args["attempts"])
		}
		aborts, ok := args["aborts"].(map[string]any)
		if !ok || aborts["conflict"] != float64(1) {
			t.Errorf("tx span aborts = %v, want conflict:1", args["aborts"])
		}
		if e["ts"] != float64(5) || e["dur"] != float64(26) {
			t.Errorf("tx span ts/dur = %v/%v, want 5/26", e["ts"], e["dur"])
		}
	}
	if spans != 1 || truncated != 1 {
		t.Fatalf("tx spans=%d truncated=%d, want 1/1\n%s", spans, truncated, buf.String())
	}
}

// TestJSONLSinkTxPath: tx-commit events carry the committing path by
// name (FlagPath marks the Path field).
func TestJSONLSinkTxPath(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Event(TraceEvent{Cycle: 31, Proc: 0, Kind: TraceTxCommit, Path: PathUFO, Flags: FlagPath})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"tx-commit"`) || !strings.Contains(buf.String(), `"path":"ufo"`) {
		t.Fatalf("JSONL tx-commit missing path: %q", buf.String())
	}
}

// TestMachineTxLifeSpansInTrace: a real run through the TxLife hooks
// lands tx-begin/tx-commit events in the ring alongside the hardware
// attempt events, without advancing the simulated clock.
func TestMachineTxLifeSpansInTrace(t *testing.T) {
	m := New(testParams(1))
	tr := m.EnableTrace(100)
	m.Run([]func(*Proc){func(p *Proc) {
		p.TxLifeBegin()
		p.TxLifeAttempt(PathHTM)
		p.BeginHW(m.NextAge(), true)
		p.TxWrite(64, 1)
		p.CommitHW()
		p.TxLifeCommit(PathHTM)
	}})
	var begin, commit *TraceEvent
	for i, e := range tr.Events() {
		switch e.Kind {
		case TraceTxBegin:
			begin = &tr.Events()[i]
		case TraceTxCommit:
			commit = &tr.Events()[i]
		}
	}
	if begin == nil || commit == nil {
		t.Fatalf("trace missing tx lifecycle events:\n%v", tr.Events())
	}
	if !commit.HasPath() || commit.Path != PathHTM {
		t.Errorf("tx-commit path = %+v, want htm", commit)
	}
	if commit.Cycle < begin.Cycle {
		t.Errorf("tx span inverted: begin @%d, commit @%d", begin.Cycle, commit.Cycle)
	}
}

func TestTextSinkMatchesDump(t *testing.T) {
	var viaSink, viaDump bytes.Buffer
	sink := NewTextSink(&viaSink)
	tr := &Trace{limit: 1 << 20}
	for _, e := range goldenEvents() {
		sink.Event(e)
		tr.Event(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	tr.Dump(&viaDump)
	if viaSink.String() != viaDump.String() {
		t.Errorf("TextSink and Trace.Dump disagree:\n%s\nvs\n%s", viaSink.String(), viaDump.String())
	}
}

// TestTraceEventZeroAddrAndAge is the regression for the String()
// suppression bug: an abort at address 0 and an age-0 transaction are
// real values and must render, while genuinely unset fields must not.
func TestTraceEventZeroAddrAndAge(t *testing.T) {
	withZeros := TraceEvent{Cycle: 5, Proc: 0, Kind: TraceHWAbort, Reason: AbortUFOKill,
		Addr: 0, Age: 0, Flags: FlagAddr | FlagAge}
	s := withZeros.String()
	if !strings.Contains(s, "addr=0x0") || !strings.Contains(s, "age=0") {
		t.Errorf("zero-valued set fields suppressed: %q", s)
	}
	unset := TraceEvent{Cycle: 5, Proc: 0, Kind: TraceHWAbort, Reason: AbortInterrupt}
	s = unset.String()
	if strings.Contains(s, "addr=") || strings.Contains(s, "age=") {
		t.Errorf("unset fields rendered: %q", s)
	}

	var jl bytes.Buffer
	sink := NewJSONLSink(&jl)
	sink.Event(withZeros)
	sink.Event(unset)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jl.String()), "\n")
	if !strings.Contains(lines[0], `"addr":"0x0"`) || !strings.Contains(lines[0], `"age":0`) {
		t.Errorf("JSONL suppressed zero-valued set fields: %q", lines[0])
	}
	if strings.Contains(lines[1], `"addr"`) || strings.Contains(lines[1], `"age"`) {
		t.Errorf("JSONL rendered unset fields: %q", lines[1])
	}
}

// TestMachineRecordsFlags checks the machine sets TraceFlags correctly on
// real runs: an abort caused by a conflict at line-0 addresses carries
// addr 0 with FlagAddr set.
func TestMachineRecordsFlags(t *testing.T) {
	m := New(testParams(2))
	tr := m.EnableTrace(100)
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.BeginHW(m.NextAge(), true)
			p.TxWrite(0, 1) // line 0: a real zero address
			p.Elapse(500)
			if p.HW() != nil {
				p.CommitHW()
			}
		},
		func(p *Proc) {
			p.Elapse(100) // let proc 0 claim line 0 first
			p.NTWrite(0, 2)
			p.Elapse(1000)
		},
	})
	var sawAbortAt0 bool
	for _, e := range tr.Events() {
		switch e.Kind {
		case TraceHWBegin, TraceHWCommit:
			if !e.HasAge() || e.HasAddr() {
				t.Errorf("%s flags = %b", e.Kind, e.Flags)
			}
		case TraceHWAbort:
			if e.HasAddr() && e.Addr == 0 {
				sawAbortAt0 = true
			}
		}
	}
	if !sawAbortAt0 {
		t.Errorf("no abort carrying address 0 recorded; events:\n%v", tr.Events())
	}
}

// TestStreamingSinkMatchesExport: events streamed live to a sink
// subscribed to TraceKinds must equal the ring replayed through Trace.Export when nothing was
// evicted.
func TestStreamingSinkMatchesExport(t *testing.T) {
	var live bytes.Buffer
	m := New(testParams(1))
	tr := m.EnableTrace(1 << 16)
	sink := NewJSONLSink(&live)
	m.Subscribe(sink, TraceKinds...)
	m.Run([]func(*Proc){func(p *Proc) {
		p.BeginHW(m.NextAge(), true)
		p.TxWrite(64, 7)
		p.CommitHW()
		p.SetUFOEnabled(false)
		p.SetUFO(64, mem.UFOFaultAll)
		p.SetUFOEnabled(true)
		p.NTRead(64)
	}})
	// Flush the live sink (the machine never closes sinks itself).
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var replay bytes.Buffer
	if err := tr.Export(NewJSONLSink(&replay)); err != nil {
		t.Fatal(err)
	}
	if live.String() != replay.String() {
		t.Errorf("streamed and exported traces differ:\n%s\nvs\n%s", live.String(), replay.String())
	}
	if !strings.Contains(live.String(), "ufo-fault") {
		t.Errorf("trace missing ufo-fault:\n%s", live.String())
	}
}
