package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tl2"
	"repro/internal/tm"
	"repro/internal/txlib"
	"repro/internal/ustm"
)

// A probe times a fixed loop over one layer's exported functions and
// reports host nanoseconds per call. run performs n calls; it may do
// untimed set-up first and returns the time of the calls alone.
type probe struct {
	name string
	n    int
	run  func(n int) time.Duration
}

// probeRounds is how many times each probe's loop runs; the median
// round is reported.
const probeRounds = 5

var probes = []probe{
	{"sim.handoff_ns", 200_000, elapseProcs(2)},
	{"sim.handoff256_ns", 200_000, elapseProcs(256)},
	{"machine.nt_access_ns", 1_000_000, ntAccessHot},
	{"machine.hwtx_ns", 200_000, hwTxRoundTrip},
	{"cache.dir_op_ns", 1_000_000, directoryOps},
	{"cache.l1_touch_ns", 2_000_000, l1Touch},
	{"mem.read64_ns", 2_000_000, memRead64},
	{"mem.write64_ns", 2_000_000, memWrite64},
	{"mem.write64_first_ns", 20_000, memWrite64First},
	{"mem.setufo_ns", 1_000_000, memSetUFO},
	{"ustm.swtx_ns", 100_000, ustmTxRoundTrip},
	{"ustm.barrier_ns", 1_000_000, ustmWriteBarrierOwned},
	{"tl2.barrier_ns", 50_000, tl2Barrier},
	{"txlib.tree_get_ns", 500_000, treeGet},
	{"txlib.hash_get_ns", 500_000, hashGet},
}

// runProbes returns each probe's median ns per call.
func runProbes() map[string]float64 {
	out := make(map[string]float64, len(probes))
	for _, p := range probes {
		rounds := make([]float64, probeRounds)
		for r := range rounds {
			runtime.GC()
			rounds[r] = float64(p.run(p.n).Nanoseconds()) / float64(p.n)
		}
		sort.Float64s(rounds)
		out[p.name] = rounds[len(rounds)/2]
	}
	return out
}

// probeParams is a one-proc machine without timer interrupts.
func probeParams() machine.Params {
	p := machine.DefaultParams(1)
	p.MemBytes = 1 << 22
	p.Quantum = 0
	p.MaxSteps = 1 << 62
	return p
}

// timed runs body as the only proc of m and returns the time from its
// call of mark to its return, leaving set-up before mark untimed.
func timed(m *machine.Machine, body func(mark func())) time.Duration {
	var start time.Time
	var d time.Duration
	m.Run([]func(*machine.Proc){func(*machine.Proc) {
		body(func() { start = time.Now() })
		d = time.Since(start)
	}})
	return d
}

// elapseProcs is the engine handoff: procs simulated procs advance in
// lockstep, so every Elapse crosses the horizon and hands the token on.
// n counts Elapse calls over all procs.
func elapseProcs(procs int) func(n int) time.Duration {
	return func(n int) time.Duration {
		e := sim.New(sim.Config{Procs: procs, MaxSteps: 1 << 62})
		per := n / procs
		ws := make([]func(*sim.Proc), procs)
		for i := range ws {
			ws[i] = func(p *sim.Proc) {
				for k := 0; k < per; k++ {
					p.Elapse(1)
				}
			}
		}
		start := time.Now()
		e.Run(ws)
		return time.Since(start) * time.Duration(n) / time.Duration(per*procs)
	}
}

// ntAccessHot is an L1-hit non-transactional read.
func ntAccessHot(n int) time.Duration {
	m := machine.New(probeParams())
	p := m.Proc(0)
	return timed(m, func(mark func()) {
		p.NTWrite(0, 1)
		mark()
		for i := 0; i < n; i++ {
			p.NTRead(0)
		}
	})
}

// hwTxRoundTrip is one hardware transaction: begin, one store, commit.
func hwTxRoundTrip(n int) time.Duration {
	m := machine.New(probeParams())
	p := m.Proc(0)
	return timed(m, func(mark func()) {
		p.NTWrite(0, 1)
		mark()
		for i := 0; i < n; i++ {
			p.BeginHW(m.NextAge(), true)
			p.TxWrite(0, uint64(i))
			p.CommitHW()
		}
	})
}

// directoryOps cycles Add, Others and Remove over 4096 lines shared by
// up to 16 procs; n counts the three calls together as three.
func directoryOps(n int) time.Duration {
	d := cache.NewDirectory()
	rounds := n / 3
	start := time.Now()
	for i := 0; i < rounds; i++ {
		line := uint64(i) & 4095
		d.Add(line, i&15)
		_ = d.Others(line, (i+1)&15)
		d.Remove(line, (i+8)&15)
	}
	return time.Since(start) * time.Duration(n) / time.Duration(3*rounds)
}

// l1Touch touches a working set of twice the default L1's lines, in an
// order that mixes hits and conflict misses.
func l1Touch(n int) time.Duration {
	p := machine.DefaultParams(1)
	c := cache.NewL1(p.L1Bytes, mem.LineBytes, p.L1Ways)
	lines := uint64(2 * p.L1Bytes / mem.LineBytes)
	start := time.Now()
	for i := 0; i < n; i++ {
		c.Touch(uint64(i) * 7 % lines)
	}
	return time.Since(start)
}

const probeMemBytes = 1 << 22

// memRead64 reads materialised pages word by word.
func memRead64(n int) time.Duration {
	m := mem.New(probeMemBytes)
	for a := uint64(0); a < probeMemBytes; a += 8 {
		m.Write64(a, a)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		m.Read64(uint64(i) * 8 % probeMemBytes)
	}
	return time.Since(start)
}

// memWrite64 writes materialised pages word by word (steady state).
func memWrite64(n int) time.Duration {
	m := mem.New(probeMemBytes)
	for a := uint64(0); a < probeMemBytes; a += 8 {
		m.Write64(a, 1)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		m.Write64(uint64(i)*8%probeMemBytes, uint64(i)|1)
	}
	return time.Since(start)
}

// memWrite64First is a nonzero write to an untouched page, which
// materialises it: the per-cell set-up cost of fresh memory.
func memWrite64First(n int) time.Duration {
	var total time.Duration
	for done := 0; done < n; {
		m := mem.New(probeMemBytes)
		start := time.Now()
		for a := uint64(0); a < probeMemBytes && done < n; a += mem.PageBytes {
			m.Write64(a, 1)
			done++
		}
		total += time.Since(start)
	}
	return total
}

// memSetUFO sets and clears protection bits across 4096 lines.
func memSetUFO(n int) time.Duration {
	m := mem.New(probeMemBytes)
	start := time.Now()
	for i := 0; i < n; i++ {
		m.SetUFO(uint64(i&4095)*mem.LineBytes, mem.UFOBits(i&3))
	}
	return time.Since(start)
}

func newUSTM(m *machine.Machine) *ustm.STM {
	cfg := ustm.DefaultConfig()
	cfg.OTableRows = 1 << 12
	cfg.StrongAtomicity = true
	return ustm.New(m, cfg)
}

// ustmTxRoundTrip is a one-store strongly atomic software transaction:
// barrier, UFO install and clear, logging.
func ustmTxRoundTrip(n int) time.Duration {
	m := machine.New(probeParams())
	ex := newUSTM(m).Exec(m.Proc(0))
	return timed(m, func(mark func()) {
		mark()
		for i := 0; i < n; i++ {
			v := uint64(i)
			ex.Atomic(func(tx tm.Tx) { tx.Store(0, v) })
		}
	})
}

// ustmWriteBarrierOwned is the write barrier's fast path: the otable
// entry is already owned with write permission.
func ustmWriteBarrierOwned(n int) time.Duration {
	m := machine.New(probeParams())
	th := newUSTM(m).Thread(m.Proc(0))
	return timed(m, func(mark func()) {
		th.Begin(m.NextAge())
		th.WriteBarrier(0)
		mark()
		for i := 0; i < n; i++ {
			th.WriteBarrier(0)
		}
		th.End() // one commit against n barriers: noise
	})
}

// tl2Barrier is TL2's per-access cost: transactions of 16 loads and 16
// stores over distinct lines; n counts accesses.
func tl2Barrier(n int) time.Duration {
	const accesses = 32
	m := machine.New(probeParams())
	ex := tl2.New(m, tl2.DefaultConfig()).Exec(m.Proc(0))
	base := m.Mem.Sbrk(accesses / 2 * mem.LineBytes)
	txs := n / accesses
	d := timed(m, func(mark func()) {
		mark()
		for i := 0; i < txs; i++ {
			ex.Atomic(func(tx tm.Tx) {
				for k := uint64(0); k < accesses/2; k++ {
					a := base + k*mem.LineBytes
					tx.Store(a, tx.Load(a)+1)
				}
			})
		}
	})
	return d * time.Duration(n) / time.Duration(txs*accesses)
}

// txlibSetup is a machine with an arena and 1024 random keys.
func txlibSetup() (txlib.Direct, *txlib.Arena, []uint64) {
	p := machine.DefaultParams(1)
	p.MemBytes = 1 << 26
	m := machine.New(p)
	r := sim.NewRand(1)
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = r.Uint64()>>1 + 1
	}
	return txlib.Direct{M: m}, txlib.NewArena(m, nil, 1<<24), keys
}

// treeGet looks keys up in a 1024-key tree.
func treeGet(n int) time.Duration {
	d, a, keys := txlibSetup()
	t := txlib.NewTree(d, a)
	for _, k := range keys {
		t.Insert(d, a, k, k)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		t.Get(d, keys[i%len(keys)])
	}
	return time.Since(start)
}

// hashGet looks keys up in a 1024-key hash table of 1024 buckets.
func hashGet(n int) time.Duration {
	d, a, keys := txlibSetup()
	h := txlib.NewHash(d, a, 1024)
	for _, k := range keys {
		h.Insert(d, a, k, k)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		h.Get(d, keys[i%len(keys)])
	}
	return time.Since(start)
}
