package stamp

import (
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
)

// ScaleMix is the scaling-study workload behind `tmsim -experiment
// scale`: compute-heavy, low-contention, and sized for the 64/128/256
// simulated-processor sweeps. Each thread's share of the work is
// dominated by real host-side computation (a hash chain whose digest the
// run commits and Validate recomputes, so it cannot be optimized away)
// charged to simulated time via Elapse; transactions are short and touch
// mostly per-thread lines, with a shared counter bumped every
// SharePeriod iterations to keep the coherence machinery honest. With
// hundreds of procs and cheap transactions, the engine's ready heap and
// proc handoff dominate its wall clock.
//
// Like every workload in this package, total work is fixed independent
// of the thread count, so simulated speedups over the sequential
// baseline are well-defined.
type ScaleMix struct {
	// TotalIters is the total iteration count, divided among threads.
	TotalIters int
	// Work is the number of hash rounds (host compute) per iteration.
	Work int
	// WorkCycles is the simulated cost charged per iteration's compute.
	WorkCycles uint64
	// SharePeriod bumps the shared counter every SharePeriod-th
	// iteration of each thread (0 disables the shared line).
	SharePeriod int

	threads    int
	slotBase   uint64
	digestBase uint64
	sharedAddr uint64
}

// NewScaleMix builds the workload with the default mix shape.
func NewScaleMix(totalIters, work int) *ScaleMix {
	return &ScaleMix{
		TotalIters:  totalIters,
		Work:        work,
		WorkCycles:  120,
		SharePeriod: 16,
	}
}

// Name implements Workload.
func (w *ScaleMix) Name() string { return "scalemix" }

// Init implements Workload.
func (w *ScaleMix) Init(m *machine.Machine, threads int) {
	w.threads = threads
	w.slotBase = m.Mem.Sbrk(uint64(threads) * mem.LineBytes)
	w.digestBase = m.Mem.Sbrk(uint64(threads) * mem.LineBytes)
	w.sharedAddr = m.Mem.Sbrk(mem.LineBytes)
}

// mix64 is the SplitMix64 finalizer — cheap, statistically strong, and
// loop-carried so the compiler cannot elide the work.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 32
	return h
}

// digest replays thread i's hash chain over its iteration share.
func (w *ScaleMix) digest(i, lo, hi int) uint64 {
	h := uint64(i)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	for iter := lo; iter < hi; iter++ {
		for r := 0; r < w.Work; r++ {
			h = mix64(h + uint64(iter*w.Work+r))
		}
	}
	return h
}

// Thread implements Workload.
func (w *ScaleMix) Thread(i int, ex tm.Exec) {
	p := ex.Proc()
	lo, hi := split(w.TotalIters, w.threads, i)
	slot := w.slotBase + uint64(i)*mem.LineBytes
	h := uint64(i)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	for iter := lo; iter < hi; iter++ {
		for r := 0; r < w.Work; r++ {
			h = mix64(h + uint64(iter*w.Work+r))
		}
		p.Elapse(w.WorkCycles)
		ex.Atomic(func(tx tm.Tx) {
			tx.Store(slot, tx.Load(slot)+1)
		})
		// Keyed on the global iteration index: the bump points fall at
		// different offsets within each thread's share, so threads do not
		// all hit the shared line at the same simulated instant.
		if w.SharePeriod > 0 && iter%w.SharePeriod == 0 {
			ex.Atomic(func(tx tm.Tx) {
				tx.Store(w.sharedAddr, tx.Load(w.sharedAddr)+1)
			})
		}
	}
	ex.Store(w.digestBase+uint64(i)*mem.LineBytes, h)
}

// Validate implements Workload: per-thread counters must equal the
// iteration shares, the shared counter their SharePeriod quotients, and
// each committed digest the replayed hash chain — so a run that skipped
// or misordered compute fails even if the counters add up.
func (w *ScaleMix) Validate(m *machine.Machine) error {
	var wantShared uint64
	for i := 0; i < w.threads; i++ {
		lo, hi := split(w.TotalIters, w.threads, i)
		if got, want := m.Mem.Read64(w.slotBase+uint64(i)*mem.LineBytes), uint64(hi-lo); got != want {
			return validErr("scalemix", "thread %d committed %d iterations, want %d", i, got, want)
		}
		if got, want := m.Mem.Read64(w.digestBase+uint64(i)*mem.LineBytes), w.digest(i, lo, hi); got != want {
			return validErr("scalemix", "thread %d digest %#x, want %#x", i, got, want)
		}
		if w.SharePeriod > 0 {
			for iter := lo; iter < hi; iter++ {
				if iter%w.SharePeriod == 0 {
					wantShared++
				}
			}
		}
	}
	if got := m.Mem.Read64(w.sharedAddr); got != wantShared {
		return validErr("scalemix", "shared counter %d, want %d", got, wantShared)
	}
	return nil
}
