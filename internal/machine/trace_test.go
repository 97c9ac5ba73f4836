package machine

import (
	"strings"
	"testing"

	"repro/internal/mem"
)

func TestTraceRecordsLifecycle(t *testing.T) {
	m := New(testParams(1))
	tr := m.EnableTrace(100)
	m.Run([]func(*Proc){func(p *Proc) {
		p.BeginHW(m.NextAge(), true)
		p.TxWrite(0, 1)
		p.CommitHW()
		p.BeginHW(m.NextAge(), true)
		p.TxWrite(0, 2)
		p.AbortHW(AbortExplicit)
	}})
	events := tr.Events()
	var kinds []TraceKind
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	want := []TraceKind{TraceHWBegin, TraceHWCommit, TraceHWBegin, TraceHWAbort}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	if events[3].Reason != AbortExplicit {
		t.Fatalf("abort reason = %v", events[3].Reason)
	}
	var sb strings.Builder
	tr.Dump(&sb)
	if !strings.Contains(sb.String(), "hw-commit") {
		t.Fatalf("dump missing events:\n%s", sb.String())
	}
}

func TestTraceRingKeepsMostRecent(t *testing.T) {
	m := New(testParams(1))
	tr := m.EnableTrace(4)
	m.Run([]func(*Proc){func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.BeginHW(m.NextAge(), true)
			p.CommitHW()
		}
	}})
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("kept %d events, want 4", len(events))
	}
	if tr.Total() != 20 {
		t.Fatalf("total = %d, want 20", tr.Total())
	}
	// The last event must be the final commit with the largest age.
	last := events[len(events)-1]
	if last.Kind != TraceHWCommit || last.Age != 10 {
		t.Fatalf("last event = %+v", last)
	}
	var sb strings.Builder
	tr.Dump(&sb)
	if !strings.Contains(sb.String(), "evicted") {
		t.Fatal("dump must mention evicted events")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	m := New(testParams(1))
	for k, subs := range m.subs {
		if len(subs) != 0 {
			t.Fatalf("%s has %d subscribers by default", TraceKind(k), len(subs))
		}
	}
	m.Run([]func(*Proc){func(p *Proc) {
		p.BeginHW(m.NextAge(), true)
		p.CommitHW()
	}})
}

func TestTraceUFOEvents(t *testing.T) {
	m := New(testParams(1))
	tr := m.EnableTrace(100)
	m.Run([]func(*Proc){func(p *Proc) {
		p.SetUFOEnabled(false)
		p.SetUFO(0, mem.UFOFaultAll)
		p.SetUFOEnabled(true)
		p.NTRead(0) // faults
	}})
	var sets, faults int
	for _, e := range tr.Events() {
		switch e.Kind {
		case TraceUFOSet:
			sets++
		case TraceUFOFault:
			faults++
		}
	}
	if sets != 1 || faults != 1 {
		t.Fatalf("sets=%d faults=%d, want 1/1", sets, faults)
	}
}
