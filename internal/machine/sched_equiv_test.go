package machine

import (
	"reflect"
	"testing"

	"repro/internal/cache"
)

// TestReferenceSchedulerBitIdentical runs a contended transactional
// workload under the fast-path and reference (Params.ReferenceScheduler,
// the executable specification, DESIGN.md §12) schedulers and requires
// bit-identical simulated results: final cycle count, per-proc clocks,
// event counters, and committed memory. This is the machine-level
// differential test pinning the production scheduler to the
// specification. The workload draws from the machine's shared Rand, so
// the draw order itself is part of what the schedulers must agree on.
func TestReferenceSchedulerBitIdentical(t *testing.T) {
	const procs = 4

	run := func(params Params) *Machine {
		params.Quantum = 500
		m := New(params)
		ws := make([]func(*Proc), procs)
		for i := 0; i < procs; i++ {
			ws[i] = func(p *Proc) {
				r := p.Machine().Rand
				for iter := 0; iter < 40; iter++ {
					addr := uint64(r.Intn(16)) * 64 // 16 hot lines
					p.BeginHW(p.Machine().NextAge(), true)
					_, out := p.TxRead(addr)
					if out.Kind == OK {
						out = p.TxWrite(addr, uint64(iter+1))
					}
					if p.HW() != nil {
						p.CommitHW()
					}
					p.Elapse(uint64(r.Intn(30)))
				}
			}
		}
		m.Run(ws)
		return m
	}

	refParams := testParams(procs)
	refParams.ReferenceScheduler = true
	ref := run(refParams)
	t.Run("fast", func(t *testing.T) {
		got := run(testParams(procs))
		if got.Cycles() != ref.Cycles() {
			t.Errorf("total cycles: fast %d, reference %d", got.Cycles(), ref.Cycles())
		}
		for i := 0; i < procs; i++ {
			gn, rn := got.Proc(i).Now(), ref.Proc(i).Now()
			if gn != rn {
				t.Errorf("proc %d clock: fast %d, reference %d", i, gn, rn)
			}
		}
		if !reflect.DeepEqual(got.Count, ref.Count) {
			t.Errorf("counters diverge:\nfast      %+v\nreference %+v", got.Count, ref.Count)
		}
		for line := uint64(0); line < 16; line++ {
			addr := line * 64
			gv, rv := got.Mem.Read64(addr), ref.Mem.Read64(addr)
			if gv != rv {
				t.Errorf("mem[%#x]: fast %d, reference %d", addr, gv, rv)
			}
		}
	})
}

// TestProcsOverDirectoryLimitRejected pins the Params validation added
// with the 256-processor directory: a machine beyond cache.MaxProcs must
// be rejected.
func TestProcsOverDirectoryLimitRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("procs over limit: expected panic")
		}
	}()
	New(testParams(cache.MaxProcs + 1))
}
