package machine

import (
	"testing"

	"repro/internal/mem"
)

// capture records every event it is subscribed to, for asserting the
// exact tuples the machine emits.
type capture struct{ events []TraceEvent }

func (c *capture) Event(e TraceEvent) { c.events = append(c.events, e) }

// of returns the captured events of the given kinds, in delivery order.
func (c *capture) of(kinds ...TraceKind) []TraceEvent {
	var out []TraceEvent
	for _, e := range c.events {
		for _, k := range kinds {
			if e.Kind == k {
				out = append(out, e)
			}
		}
	}
	return out
}

// attributionKinds are the events the contention profile consumes.
var attributionKinds = []TraceKind{TraceConflict, TraceHWCommit, TraceSWCommit}

// allKinds lists every event kind.
func allKinds() []TraceKind {
	var ks []TraceKind
	for k := TraceKind(0); k < numTraceKinds; k++ {
		ks = append(ks, k)
	}
	return ks
}

// TestConflictEdgeHWConflict: an age-ordered HW-vs-HW kill emits exactly
// one edge carrying the requester as aggressor, the owner as victim, the
// conflicting line, the conflict reason, and a plausible cycle stamp.
func TestConflictEdgeHWConflict(t *testing.T) {
	m := New(testParams(2))
	rec := &capture{}
	m.Subscribe(rec, attributionKinds...)
	m.Run([]func(*Proc){
		func(p *Proc) {
			age := p.Machine().NextAge() // older
			p.Elapse(300)
			p.BeginHW(age, true)
			p.TxRead(0) // older requester: aborts the younger owner
			p.CommitHW()
		},
		func(p *Proc) {
			p.BeginHW(p.Machine().NextAge(), true) // younger
			p.TxWrite(0, 9)
			p.Elapse(1000)
			if p.HW() != nil {
				p.CommitHW()
			}
		},
	})
	edges := rec.of(TraceConflict)
	if len(edges) != 1 {
		t.Fatalf("edges = %+v, want exactly one", edges)
	}
	e := edges[0]
	if e.Peer != 0 || e.Proc != 1 {
		t.Fatalf("edge attribution = %d→%d, want 0→1", e.Peer, e.Proc)
	}
	if !e.HasAddr() || e.Addr != 0 || e.SW {
		t.Fatalf("edge = %+v, want hw edge on line 0", e)
	}
	if e.Reason != AbortConflict {
		t.Fatalf("edge reason = %v", e.Reason)
	}
	if e.Cycle == 0 || e.Cycle > m.Cycles() {
		t.Fatalf("edge cycle = %d, machine ran %d", e.Cycle, m.Cycles())
	}
	// One HW commit (the aggressor's); edge count matches the abort count.
	commits := rec.of(TraceHWCommit, TraceSWCommit)
	if len(commits) != 1 || commits[0].Kind != TraceHWCommit || commits[0].Proc != 0 {
		t.Fatalf("commits = %+v", commits)
	}
	if m.Count.HWAbortsByReason[AbortConflict] != 1 {
		t.Fatalf("abort count = %d", m.Count.HWAbortsByReason[AbortConflict])
	}
}

// TestConflictEdgeUFOKill: setting a UFO bit over a speculative reader
// emits a ufo-kill edge from the setter to the reader.
func TestConflictEdgeUFOKill(t *testing.T) {
	m := New(testParams(2))
	rec := &capture{}
	m.Subscribe(rec, attributionKinds...)
	m.Run([]func(*Proc){
		func(p *Proc) {
			victimTx(p, false)
		},
		func(p *Proc) {
			p.Elapse(100)
			p.SetUFOEnabled(false)
			p.SetUFO(0, mem.UFOFaultOnWrite)
		},
	})
	edges := rec.of(TraceConflict)
	if len(edges) != 1 {
		t.Fatalf("edges = %+v", edges)
	}
	e := edges[0]
	if e.Peer != 1 || e.Proc != 0 || e.Reason != AbortUFOKill || !e.HasAddr() || e.Addr != 0 {
		t.Fatalf("ufo edge = %+v, want 1→0 ufo-kill on line 0", e)
	}
}

// TestConflictEdgeNonTConflict: a non-transactional write into a HW
// read set emits a nonT-conflict edge.
func TestConflictEdgeNonTConflict(t *testing.T) {
	m := New(testParams(2))
	rec := &capture{}
	m.Subscribe(rec, attributionKinds...)
	m.Run([]func(*Proc){
		func(p *Proc) {
			victimTx(p, false)
		},
		func(p *Proc) {
			p.Elapse(100)
			p.NTWrite(0, 5)
		},
	})
	edges := rec.of(TraceConflict)
	if len(edges) != 1 {
		t.Fatalf("edges = %+v", edges)
	}
	e := edges[0]
	if e.Peer != 1 || e.Proc != 0 || e.Reason != AbortNonTConflict {
		t.Fatalf("nonT edge = %+v, want 1→0 nonT-conflict", e)
	}
}

// TestConflictEdgeAttributedAbort: AbortHWAttributed self-aborts but
// attributes the edge to the named peer; aggressor -1 falls back to self.
func TestConflictEdgeAttributedAbort(t *testing.T) {
	m := New(testParams(2))
	rec := &capture{}
	m.Subscribe(rec, attributionKinds...)
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.BeginHW(p.Machine().NextAge(), true)
			p.TxRead(0)
			p.AbortHWAttributed(AbortExplicit, 1, 0x140)
			p.BeginHW(p.Machine().NextAge(), true)
			p.TxRead(64)
			p.AbortHWAttributed(AbortExplicit, -1, 0x180)
		},
		func(p *Proc) {},
	})
	edges := rec.of(TraceConflict)
	if len(edges) != 2 {
		t.Fatalf("edges = %+v", edges)
	}
	if e := edges[0]; e.Peer != 1 || e.Proc != 0 || e.Addr != 0x140 || !e.HasAddr() {
		t.Fatalf("attributed edge = %+v, want 1→0 @0x140", e)
	}
	if e := edges[1]; e.Peer != 0 || e.Proc != 0 {
		t.Fatalf("self-fallback edge = %+v, want 0→0", e)
	}
	if m.Count.HWAbortsByReason[AbortExplicit] != 2 {
		t.Fatalf("aborts = %d", m.Count.HWAbortsByReason[AbortExplicit])
	}
}

// TestConflictEdgeSWHelpers: the RecordSW* pass-throughs stamp the
// caller's clock and the SW flag.
func TestConflictEdgeSWHelpers(t *testing.T) {
	m := New(testParams(2))
	rec := &capture{}
	m.Subscribe(rec, attributionKinds...)
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.Elapse(10)
			p.RecordSWKill(p.Machine().Proc(1), AbortConflict, 0x200, true)
			p.RecordSWCommit()
		},
		func(p *Proc) {
			p.Elapse(20)
			p.RecordSWAbortBy(-1, AbortConflict, 0, false)
		},
	})
	edges := rec.of(TraceConflict)
	if len(edges) != 2 {
		t.Fatalf("edges = %+v", edges)
	}
	if e := edges[0]; !e.SW || e.Peer != 0 || e.Proc != 1 || e.Addr != 0x200 || e.Cycle < 10 {
		t.Fatalf("sw kill edge = %+v", e)
	}
	if e := edges[1]; !e.SW || e.Peer != -1 || e.Proc != 1 || e.HasAddr() {
		t.Fatalf("sw abort-by edge = %+v", e)
	}
	commits := rec.of(TraceHWCommit, TraceSWCommit)
	if len(commits) != 1 || commits[0].Kind != TraceSWCommit || commits[0].Proc != 0 {
		t.Fatalf("commits = %+v", commits)
	}
}

// TestConflictEventsUnsubscribed: with nothing subscribed the same
// collision runs identically and nothing panics (the empty-list fast
// path).
func TestConflictEventsUnsubscribed(t *testing.T) {
	m := New(testParams(2))
	m.Run([]func(*Proc){
		func(p *Proc) {
			victimTx(p, true)
			p.RecordSWKill(p.Machine().Proc(1), AbortConflict, 0, true)
			p.RecordSWAbortBy(0, AbortConflict, 0, false)
			p.RecordSWCommit()
		},
		func(p *Proc) {
			p.Elapse(100)
			p.NTWrite(0, 5)
		},
	})
	for k, subs := range m.subs {
		if len(subs) != 0 {
			t.Fatalf("%s has %d subscribers, want none", TraceKind(k), len(subs))
		}
	}
}

// TestOneConflictEventPerKill: a hardware kill delivers exactly one
// conflict event, carrying the victim as Proc and the aggressor as Peer,
// to a subscriber of every kind.
func TestOneConflictEventPerKill(t *testing.T) {
	m := New(testParams(2))
	all := &capture{}
	m.Subscribe(all, allKinds()...)
	m.Run([]func(*Proc){
		func(p *Proc) { victimTx(p, false) },
		func(p *Proc) {
			p.Elapse(100)
			p.NTWrite(0, 5) // kills proc 0's reader
		},
	})
	edges := all.of(TraceConflict)
	if len(edges) != 1 || edges[0].Proc != 0 || edges[0].Peer != 1 || edges[0].SW {
		t.Fatalf("conflict events = %+v, want one 1→0 hw edge", edges)
	}
	if aborts := all.of(TraceHWAbort); len(aborts) != 1 {
		t.Fatalf("hw-abort events = %+v, want one", aborts)
	}
}

// TestSubscribersSeeOnlyTheirKinds: a kind-filtered subscriber receives
// exactly the events of its kinds that an every-kind subscriber sees, in
// the same order.
func TestSubscribersSeeOnlyTheirKinds(t *testing.T) {
	m := New(testParams(2))
	all, some := &capture{}, &capture{}
	kinds := []TraceKind{TraceConflict, TraceTxCommit, TraceUFOSet}
	m.Subscribe(all, allKinds()...)
	m.Subscribe(some, kinds...)
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.TxLifeBegin()
			p.TxLifeAttempt(PathHTM)
			if victimTx(p, false).Kind != OK {
				p.TxLifeAbort(PathHTM, AbortUFOKill)
				p.TxLifeAttempt(PathHTM)
			}
			p.TxLifeCommit(PathHTM)
		},
		func(p *Proc) {
			p.Elapse(100)
			p.SetUFOEnabled(false)
			p.SetUFO(0, mem.UFOFaultOnWrite)
		},
	})
	want := all.of(kinds...)
	if len(want) < 3 || len(all.events) <= len(want) {
		t.Fatalf("run too small to test filtering: %d of %d events", len(want), len(all.events))
	}
	if len(some.events) != len(want) {
		t.Fatalf("filtered subscriber saw %d events, want %d:\n%+v", len(some.events), len(want), some.events)
	}
	for i, e := range some.events {
		if e != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
}

// TestTxLifeHooksUnsubscribedAllocateNothing: with no subscribers the
// lifecycle hooks TM systems call on every transaction allocate nothing.
func TestTxLifeHooksUnsubscribedAllocateNothing(t *testing.T) {
	p := New(testParams(1)).Proc(0)
	allocs := testing.AllocsPerRun(100, func() {
		p.TxLifeBegin()
		p.TxLifeAttempt(PathHTM)
		p.TxLifeCommit(PathHTM)
	})
	if allocs != 0 {
		t.Fatalf("TxLife hooks allocate %.1f times per transaction, want 0", allocs)
	}
}
