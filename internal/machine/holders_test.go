package machine

import (
	"testing"

	"repro/internal/mem"
)

// TestHolderKillsInAscendingID: three hardware readers hold one line,
// having read it in descending ID order. A non-transactional store and
// then a set_ufo_bits each kill all three, and the conflict events name
// the victims in ascending processor ID.
func TestHolderKillsInAscendingID(t *testing.T) {
	const addr = 0x4000
	m := New(testParams(4))
	rec := &capture{}
	m.Subscribe(rec, TraceConflict)
	reader := func(p *Proc) {
		for _, at := range []uint64{100, 5000} {
			p.ElapseUntil(at + 10*uint64(4-p.ID())) // proc 3 reads first
			p.BeginHW(m.NextAge(), true)
			if _, out := p.TxRead(addr); out.Kind != OK {
				t.Errorf("proc %d read at %d: %v", p.ID(), at, out.Kind)
			}
			p.ElapseUntil(at + 3000)
			if out := p.CommitHW(); out.Kind != HWAborted {
				t.Errorf("proc %d committed the round at %d, want killed", p.ID(), at)
			}
		}
	}
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.ElapseUntil(2000)
			if err := m.CheckConsistency(); err != nil {
				t.Error(err)
			}
			p.NTWrite(addr, 1)
			p.ElapseUntil(7000)
			p.SetUFO(addr, mem.UFOFaultOnWrite)
			if err := m.CheckConsistency(); err != nil {
				t.Error(err)
			}
		},
		reader, reader, reader,
	})
	edges := rec.of(TraceConflict)
	want := []struct {
		victim int
		reason AbortReason
	}{
		{1, AbortNonTConflict}, {2, AbortNonTConflict}, {3, AbortNonTConflict},
		{1, AbortUFOKill}, {2, AbortUFOKill}, {3, AbortUFOKill},
	}
	if len(edges) != len(want) {
		t.Fatalf("%d conflict events, want %d: %+v", len(edges), len(want), edges)
	}
	for i, w := range want {
		e := edges[i]
		if e.Proc != w.victim || e.Peer != 0 || e.Reason != w.reason {
			t.Fatalf("event %d = %d→%d %v, want 0→%d %v", i, e.Peer, e.Proc, e.Reason, w.victim, w.reason)
		}
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestSparedReaderStaysHolder: under the true-conflict limit study a
// fault-on-write install spares a hardware reader but still takes its L1
// copy. The reader keeps its SR bit, so a later store still kills it:
// holders are not derived from directory sharers.
func TestSparedReaderStaysHolder(t *testing.T) {
	const addr = 0x4000
	params := testParams(2)
	params.TrueConflictUFOKills = true
	m := New(params)
	var reader Outcome
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.SetUFOEnabled(false)
			p.ElapseUntil(1000)
			p.SetUFO(addr, mem.UFOFaultOnWrite)
			p.ElapseUntil(2000)
			p.NTWrite(addr, 1)
		},
		func(p *Proc) {
			p.BeginHW(m.NextAge(), true)
			p.TxRead(addr)
			p.ElapseUntil(1500)
			if p.L1().Contains(mem.LineOf(addr)) {
				t.Error("set_ufo_bits left the reader's copy in place")
			}
			if p.HW() == nil || !p.HW().InReadSet(mem.LineOf(addr)) {
				t.Error("spared reader lost its SR bit")
			}
			if err := m.CheckConsistency(); err != nil {
				t.Error(err)
			}
			p.ElapseUntil(3000)
			reader = p.CommitHW()
		},
	})
	if reader.Kind != HWAborted || reader.Reason != AbortNonTConflict {
		t.Fatalf("reader = %+v, want killed by the store", reader)
	}
	if m.Count.UFOKillsFalse != 1 {
		t.Fatalf("false UFO conflicts = %d, want 1", m.Count.UFOKillsFalse)
	}
}

// TestAccessPathDoesNotAllocate pins the per-reference path at zero heap
// allocations on a warmed machine: the holder index, the directory and
// the L1 are dense tables, and sharer sets are returned by value.
func TestAccessPathDoesNotAllocate(t *testing.T) {
	const a, b = 0x4000, 0x8000
	m := New(testParams(2))
	q := m.Proc(1)
	m.Run([]func(*Proc){
		func(p *Proc) {
			cases := []struct {
				name string
				f    func()
			}{
				{"NTRead", func() { p.NTRead(a) }},
				{"NTWrite upgrading over a sharer", func() {
					// Make proc 1 a sharer again, as its own read would.
					q.l1.Touch(mem.LineOf(b))
					m.dir.Add(mem.LineOf(b), q.ID())
					p.NTWrite(b, 1)
					if q.l1.Contains(mem.LineOf(b)) {
						t.Error("store did not invalidate the other sharer")
					}
				}},
				{"BeginHW/TxRead/TxWrite/CommitHW", func() {
					p.BeginHW(m.NextAge(), true)
					p.TxRead(a)
					p.TxWrite(b, 2)
					if out := p.CommitHW(); out.Kind != OK {
						t.Errorf("commit = %+v", out)
					}
				}},
			}
			for _, c := range cases {
				if n := testing.AllocsPerRun(100, c.f); n != 0 {
					t.Errorf("%s: %v allocations per run, want 0", c.name, n)
				}
			}
			if err := m.CheckConsistency(); err != nil {
				t.Error(err)
			}
		},
		func(*Proc) {},
	})
}

// TestConsistencyCatchesStrayHolderState: CheckConsistency reports a
// holder bit with no live transaction behind it, a listed line without
// its bit, and a speculative word outside the writer's SW bits.
func TestConsistencyCatchesStrayHolderState(t *testing.T) {
	m := New(testParams(2))
	m.holders.mark(7, 1, false)
	if m.CheckConsistency() == nil {
		t.Fatal("holder bit of an idle processor not reported")
	}
	m.holders.drop(7, 1)
	m.Run([]func(*Proc){
		func(p *Proc) {
			p.BeginHW(m.NextAge(), true)
			p.TxRead(0x4000)
			if err := m.CheckConsistency(); err != nil {
				t.Error(err)
			}
			p.hw.spec[0x4008] = 1 // read, never written
			if m.CheckConsistency() == nil {
				t.Error("speculative word under an SR bit only not reported")
			}
			delete(p.hw.spec, 0x4008)
			p.hw.lines = append(p.hw.lines, 99)
			if m.CheckConsistency() == nil {
				t.Error("listed line without a holder bit not reported")
			}
			p.hw.lines = p.hw.lines[:1]
			p.CommitHW()
		},
		func(*Proc) {},
	})
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
