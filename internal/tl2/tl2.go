// Package tl2 implements the TL2 software TM of Dice, Shalev, and Shavit,
// which the paper's §5 evaluation uses to link USTM's performance to
// published results.
// TL2 is the algorithmic opposite of USTM on both axes: lazy versioning
// (writes buffer in a redo log until commit) and commit-time conflict
// detection (a global version clock plus per-stripe versioned write
// locks). It is weakly atomic.
//
// The global clock and the lock table live at simulated addresses so
// their traffic is charged like any other memory traffic.
package tl2

import (
	"fmt"

	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tm"
)

// Config carries TL2 parameters and cost constants.
type Config struct {
	// Stripes is the lock-table size (power of two).
	Stripes int

	BeginCycles    uint64
	BarrierCycles  uint64
	CommitCycles   uint64
	PerWriteCycles uint64 // lock + write-back + unlock logic per stripe
	// BackoffBase is the exponential-backoff unit between attempts. Zero
	// selects cm.DefaultBase (64).
	BackoffBase uint64
}

// DefaultConfig returns the evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Stripes:        1 << 16,
		BeginCycles:    12,
		BarrierCycles:  8,
		CommitCycles:   20,
		PerWriteCycles: 10,
	}
}

type stripe struct {
	version uint64
	owner   int // processor ID, valid when locked
	writer  int // 1 + ID of the processor that last committed, 0 if none
	locked  bool
}

// System implements tm.System.
type System struct {
	m     *machine.Machine
	cfg   Config
	stats tm.Stats

	clock     uint64
	clockAddr uint64
	stripes   []stripe
	lockBase  uint64
	mask      uint64

	backoff cm.Spec
	cmgr    *cm.Manager
}

// SetBackoffPolicy implements cm.Tunable: it selects the contention-
// management policy. Call before the first transaction runs.
func (s *System) SetBackoffPolicy(spec cm.Spec) {
	s.backoff = spec
	s.cmgr = nil
}

// CM implements cm.Instrumented (built lazily so cfg.BackoffBase tweaks
// after New still take effect).
func (s *System) CM() *cm.Manager {
	if s.cmgr == nil {
		s.cmgr = cm.NewManager(s.backoff, s.cfg.BackoffBase)
	}
	return s.cmgr
}

// New builds a TL2 instance over the machine.
func New(m *machine.Machine, cfg Config) *System {
	if cfg.Stripes <= 0 || cfg.Stripes&(cfg.Stripes-1) != 0 {
		panic(fmt.Sprintf("tl2: Stripes %d must be a positive power of two", cfg.Stripes))
	}
	s := &System{
		m:         m,
		cfg:       cfg,
		clockAddr: m.Mem.Sbrk(mem.LineBytes),
		stripes:   make([]stripe, cfg.Stripes),
		lockBase:  m.Mem.Sbrk(uint64(cfg.Stripes) * mem.LineBytes),
		mask:      uint64(cfg.Stripes - 1),
	}
	return s
}

// Name implements tm.System.
func (s *System) Name() string { return "tl2" }

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return &s.stats }

// Exec implements tm.System.
func (s *System) Exec(p *machine.Proc) tm.Exec { return &exec{s: s, p: p} }

func (s *System) stripeOf(addr uint64) uint64 {
	return (mem.LineOf(addr) * 0x9E3779B97F4A7C15 >> 19) & s.mask
}

func (s *System) stripeAddr(i uint64) uint64 { return s.lockBase + i*mem.LineBytes }

type exec struct {
	s *System
	p *machine.Proc

	rv        uint64            // read version (clock sample at begin)
	redo      map[uint64]uint64 // addr → buffered value (lazy versioning)
	redoOrder []uint64          // insertion order, for deterministic write-back
	writeSet  []uint64          // stripe indices, deduplicated
	readSet   []uint64          // stripe indices, deduplicated
	inTx      bool
	onCommit  []func()
	nestSaves []tl2Save
	nestUndo  []redoUndo

	// txSeq numbers this context's transactions; combined with the
	// processor ID it identifies a transaction to the contention manager
	// (TL2 has no hardware age to reuse).
	txSeq uint64
}

// tl2Save is a closed-nest savepoint over the speculative state.
type tl2Save struct {
	redoLen, readLen, writeLen, undoLen int
}

// redoUndo records a redo-log overwrite made inside a nest.
type redoUndo struct {
	addr    uint64
	hadPrev bool
	prev    uint64
}

var _ tm.Exec = (*exec)(nil)

func (e *exec) Proc() *machine.Proc { return e.p }

func (e *exec) Load(addr uint64) uint64 {
	v, out := e.p.NTRead(addr)
	if out.Kind != machine.OK {
		panic("tl2: read outcome " + out.Kind.String())
	}
	return v
}

func (e *exec) Store(addr, val uint64) {
	if out := e.p.NTWrite(addr, val); out.Kind != machine.OK {
		panic("tl2: write outcome " + out.Kind.String())
	}
}

// Atomic implements tm.Exec: the standard TL2 loop — speculate, validate,
// commit; abort restarts with backoff.
func (e *exec) Atomic(body func(tm.Tx)) {
	cmgr := e.s.CM()
	id := uint64(e.p.ID())<<32 | e.txSeq
	e.txSeq++
	e.p.TxLifeBegin()
	// Attempts are plain software-path attempts until the starvation
	// escalation takes the global token; then they are serialized
	// fallback attempts.
	path := machine.PathSW
	attempts := 0
	for {
		e.p.TxLifeAttempt(path)
		e.begin()
		reason, retryReq, aborted := tm.Catch(func() { body(tl2Tx{e}) })
		if !aborted {
			if e.commit() {
				e.s.stats.SWCommits++
				e.p.RecordSWCommit()
				e.p.TxLifeCommit(path)
				cmgr.TxDone(id)
				for _, f := range e.onCommit {
					f()
				}
				return
			}
			aborted = true
			reason = machine.AbortConflict
		}
		e.inTx = false
		if retryReq {
			// Poll-based retry emulation (TL2 has no native waiting).
			e.s.stats.Retries++
			e.p.TxLifeRetryWait()
			cmgr.RetryPoll(e.p)
			continue
		}
		e.s.stats.SWAborts++
		e.p.TxLifeAbort(path, reason)
		attempts++ // the policy clamps the shift (saturating counter)
		if cmgr.OnAbort(e.p, id, attempts, reason) != cm.EscalateNone {
			// Starving per the policy: with no other fallback, take the
			// global serialization token (released at commit).
			cmgr.AcquireToken(e.p, id)
			path = machine.PathFallback
		}
	}
}

func (e *exec) begin() {
	e.rv = e.s.clock
	e.readClock()
	if e.redo == nil {
		e.redo = make(map[uint64]uint64)
	} else {
		clear(e.redo)
	}
	e.redoOrder = e.redoOrder[:0]
	e.writeSet = e.writeSet[:0]
	e.readSet = e.readSet[:0]
	e.onCommit = e.onCommit[:0]
	e.nestSaves = e.nestSaves[:0]
	e.nestUndo = e.nestUndo[:0]
	e.inTx = true
	e.p.Elapse(e.s.cfg.BeginCycles)
}

func (e *exec) readClock() {
	if _, out := e.p.NTRead(e.s.clockAddr); out.Kind != machine.OK {
		panic("tl2: clock read outcome " + out.Kind.String())
	}
}

// load implements the TL2 read barrier: sample the stripe lock, read the
// data, resample — abort if the stripe is locked or newer than rv.
func (e *exec) load(addr uint64) uint64 {
	if v, ok := e.redo[addr]; ok {
		return v
	}
	si := e.s.stripeOf(addr)
	st := &e.s.stripes[si]
	e.touchStripe(si)
	e.p.Elapse(e.s.cfg.BarrierCycles)
	if st.locked || st.version > e.rv {
		e.recordStripeConflict(st, mem.LineAddr(mem.LineOf(addr)), true)
		tm.Unwind(machine.AbortConflict)
	}
	v := e.Load(addr)
	// Post-validation (the stripe may have changed while the data load
	// paid its latency).
	if st.locked || st.version > e.rv {
		e.recordStripeConflict(st, mem.LineAddr(mem.LineOf(addr)), true)
		tm.Unwind(machine.AbortConflict)
	}
	e.noteStripe(&e.readSet, si)
	return v
}

func (e *exec) store(addr, val uint64) {
	e.p.Elapse(e.s.cfg.BarrierCycles)
	prev, seen := e.redo[addr]
	if !seen {
		e.redoOrder = append(e.redoOrder, addr)
	}
	if len(e.nestSaves) > 0 {
		e.nestUndo = append(e.nestUndo, redoUndo{addr: addr, hadPrev: seen, prev: prev})
	}
	e.redo[addr] = val
	e.noteStripe(&e.writeSet, e.s.stripeOf(addr))
}

func (e *exec) noteStripe(set *[]uint64, si uint64) {
	for _, x := range *set {
		if x == si {
			return
		}
	}
	*set = append(*set, si)
}

func (e *exec) touchStripe(si uint64) {
	if _, out := e.p.NTRead(e.s.stripeAddr(si)); out.Kind != machine.OK {
		panic("tl2: stripe read outcome " + out.Kind.String())
	}
}

func (e *exec) writeStripe(si uint64) {
	if out := e.p.NTWrite(e.s.stripeAddr(si), e.s.stripes[si].version); out.Kind != machine.OK {
		panic("tl2: stripe write outcome " + out.Kind.String())
	}
}

// commit implements TL2's commit protocol. Returns false on validation or
// lock-acquisition failure (the transaction retries).
func (e *exec) commit() bool {
	if len(e.writeSet) == 0 {
		// Read-only fast path: reads were validated against rv as they
		// happened.
		e.p.Elapse(e.s.cfg.CommitCycles)
		return true
	}
	// 1. Lock the write set (bounded spin: fail fast to avoid deadlock).
	locked := e.writeSet[:0:0]
	for _, si := range e.writeSet {
		st := &e.s.stripes[si]
		e.touchStripe(si)
		e.p.Elapse(e.s.cfg.PerWriteCycles)
		if st.locked && st.owner != e.p.ID() {
			e.recordStripeConflict(st, 0, false)
			e.unlock(locked)
			return false
		}
		st.locked = true
		st.owner = e.p.ID()
		e.writeStripe(si)
		locked = append(locked, si)
	}
	// 2. Increment the global clock.
	e.s.clock++
	wv := e.s.clock
	if out := e.p.NTWrite(e.s.clockAddr, wv); out.Kind != machine.OK {
		panic("tl2: clock write outcome " + out.Kind.String())
	}
	// 3. Validate the read set (skippable when rv+1 == wv, the standard
	// optimization; modeled by still charging the loop when needed).
	if e.rv+1 != wv {
		for _, si := range e.readSet {
			st := &e.s.stripes[si]
			e.touchStripe(si)
			if (st.locked && st.owner != e.p.ID()) || st.version > e.rv {
				e.recordStripeConflict(st, 0, false)
				e.unlock(locked)
				return false
			}
		}
	}
	// 4. Write back the redo log (in insertion order, keeping the
	// simulation deterministic) and release locks at version wv.
	for _, addr := range e.redoOrder {
		e.Store(addr, e.redo[addr])
	}
	for _, si := range locked {
		st := &e.s.stripes[si]
		st.version = wv
		st.locked = false
		st.writer = e.p.ID() + 1
		e.writeStripe(si)
	}
	e.p.Elapse(e.s.cfg.CommitCycles)
	return true
}

// recordStripeConflict records a who-aborted-whom edge against the
// stripe's lock owner (or, when unlocked, its last committer — the
// transaction whose version bump invalidated us; -1 when no one has
// committed the stripe yet).
func (e *exec) recordStripeConflict(st *stripe, addr uint64, hasAddr bool) {
	agg := st.writer - 1
	if st.locked {
		agg = st.owner
	}
	e.p.RecordSWAbortBy(agg, machine.AbortConflict, addr, hasAddr)
}

func (e *exec) unlock(locked []uint64) {
	for _, si := range locked {
		e.s.stripes[si].locked = false
		e.writeStripe(si)
	}
}

// beginNest/endNest/abortNest implement closed nesting over the redo log
// (lazy versioning makes partial abort a pure buffer operation).
func (e *exec) beginNest() {
	e.nestSaves = append(e.nestSaves, tl2Save{
		redoLen: len(e.redoOrder), readLen: len(e.readSet),
		writeLen: len(e.writeSet), undoLen: len(e.nestUndo),
	})
	e.p.Elapse(4)
}

func (e *exec) endNest() {
	e.nestSaves = e.nestSaves[:len(e.nestSaves)-1]
	e.p.Elapse(2)
}

func (e *exec) abortNest() {
	sv := e.nestSaves[len(e.nestSaves)-1]
	e.nestSaves = e.nestSaves[:len(e.nestSaves)-1]
	for i := len(e.nestUndo) - 1; i >= sv.undoLen; i-- {
		u := e.nestUndo[i]
		if u.hadPrev {
			e.redo[u.addr] = u.prev
		} else {
			delete(e.redo, u.addr)
		}
	}
	e.nestUndo = e.nestUndo[:sv.undoLen]
	e.redoOrder = e.redoOrder[:sv.redoLen]
	e.readSet = e.readSet[:sv.readLen]
	e.writeSet = e.writeSet[:sv.writeLen]
}

type tl2Tx struct{ e *exec }

var _ tm.Tx = tl2Tx{}

func (t tl2Tx) Load(addr uint64) uint64 { return t.e.load(addr) }
func (t tl2Tx) Store(addr, val uint64)  { t.e.store(addr, val) }
func (t tl2Tx) OnCommit(f func())       { t.e.onCommit = append(t.e.onCommit, f) }
func (t tl2Tx) Abort() {
	if len(t.e.nestSaves) > 0 {
		tm.UnwindNested()
	}
	tm.Unwind(machine.AbortExplicit)
}

// Nested implements tm.Tx with real partial abort (a redo-log savepoint).
func (t tl2Tx) Nested(body func()) bool {
	t.e.beginNest()
	if tm.CatchNested(body) {
		t.e.abortNest()
		return false
	}
	t.e.endNest()
	return true
}
func (t tl2Tx) Retry()   { tm.UnwindRetry() }
func (t tl2Tx) Syscall() { t.e.p.Elapse(1) }
