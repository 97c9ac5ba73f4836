package machine_test

import (
	"testing"

	"repro/internal/contention"
	"repro/internal/machine"
	"repro/internal/txstats"
)

// TestConflictCountedOnceByEachRecorder: one hardware kill is one
// conflict event, and the contention profile and the lifecycle recorder,
// subscribed side by side, each count it exactly once.
func TestConflictCountedOnceByEachRecorder(t *testing.T) {
	params := machine.DefaultParams(2)
	params.MemBytes = 1 << 20
	params.Quantum = 0
	m := machine.New(params)
	prof := contention.New(2, 0)
	rec := txstats.New(2)
	m.Subscribe(prof, contention.Kinds...)
	m.Subscribe(rec, txstats.Kinds...)
	m.Run([]func(*machine.Proc){
		func(p *machine.Proc) {
			// A hardware reader of line 0, killed by proc 1's store during
			// its first attempt and committing on the second.
			p.TxLifeBegin()
			for {
				p.TxLifeAttempt(machine.PathHTM)
				p.BeginHW(m.NextAge(), true)
				_, out := p.TxRead(0)
				p.Elapse(1000)
				if p.HW() != nil {
					out = p.CommitHW()
				}
				if out.Kind == machine.OK {
					break
				}
				p.TxLifeAbort(machine.PathHTM, out.Reason)
			}
			p.TxLifeCommit(machine.PathHTM)
		},
		func(p *machine.Proc) {
			p.Elapse(100)
			p.NTWrite(0, 5)
		},
	})

	cr := prof.Report(0)
	if cr.Edges != 1 || cr.Matrix[1][0] != 1 || cr.HWCommits != 1 {
		t.Fatalf("contention: edges %d, matrix %v, hw commits %d; want one 1→0 edge and one commit",
			cr.Edges, cr.Matrix, cr.HWCommits)
	}
	tr := rec.Report()
	if tr.Committed != 1 || len(tr.Aborts) != 1 || tr.Aborts[0].Count != 1 {
		t.Fatalf("txstats: committed %d, aborts %+v; want one commit after one abort", tr.Committed, tr.Aborts)
	}
	if tr.WastedCycles == 0 || tr.UnknownWasted != 0 || len(tr.AggressorWasted) != 1 ||
		tr.AggressorWasted[0] != (txstats.ProcCycles{Proc: 1, Cycles: tr.WastedCycles}) {
		t.Fatalf("txstats: wasted %d charged as %+v (unknown %d); want all of it on proc 1",
			tr.WastedCycles, tr.AggressorWasted, tr.UnknownWasted)
	}
}
