// Package phtm implements the PhTM baseline (Lev et al., as modeled in
// the paper's §5): a phased hybrid that never runs hardware and
// software transactions concurrently. Hardware transactions read a global
// count of in-flight software transactions transactionally at begin; any
// transaction that must run in software flips the whole system into an
// STM phase, dragging every concurrent hardware transaction along with it
// — the pathology the paper's vacation results expose.
//
// Two counters implement the phases, both in simulated memory:
//
//   - numSTM: software transactions currently executing. Hardware
//     transactions read it (transactionally) at begin and abort if it is
//     non-zero; updates to it kill in-flight hardware readers via
//     coherence (the "nonT conflicts on the counter" of Figure 6).
//   - numMustSTM: in-flight transactions that failed over for a condition
//     hardware cannot run (overflow, syscall, ...). While non-zero, new
//     transactions start directly in software; once it drains, waiting
//     transactions stall until numSTM reaches zero, then resume in
//     hardware.
package phtm

import (
	"repro/internal/btm"
	"repro/internal/cm"
	"repro/internal/machine"
	"repro/internal/tm"
	"repro/internal/ustm"
)

// System implements tm.System.
type System struct {
	m   *machine.Machine
	stm *ustm.STM

	numSTMAddr     uint64
	numMustSTMAddr uint64
	numSTM         int
	numMustSTM     int
	// lastSTMProc is the processor that most recently entered the STM
	// phase (-1 before any has): the party phase aborts are attributed to.
	lastSTMProc int

	// BackoffBase is the exponential-backoff unit for hardware retries.
	// Zero selects cm.DefaultBase (64).
	BackoffBase uint64
	// PhasePollCycles is the stall interval while waiting for an STM
	// phase to drain.
	PhasePollCycles uint64

	backoff cm.Spec
	cmgr    *cm.Manager
}

// SetBackoffPolicy implements cm.Tunable: it selects the contention-
// management policy. Call before the first transaction runs.
func (s *System) SetBackoffPolicy(spec cm.Spec) {
	s.backoff = spec
	s.cmgr = nil
}

// CM implements cm.Instrumented (built lazily so BackoffBase tweaks
// after New still take effect).
func (s *System) CM() *cm.Manager {
	if s.cmgr == nil {
		s.cmgr = cm.NewManager(s.backoff, s.BackoffBase)
	}
	return s.cmgr
}

// New builds a PhTM over the machine. The embedded USTM is weakly atomic
// (PhTM's phase exclusion replaces conflict detection between modes).
func New(m *machine.Machine, cfg ustm.Config) *System {
	cfg.StrongAtomicity = false
	return &System{
		m:               m,
		stm:             ustm.New(m, cfg),
		numSTMAddr:      m.Mem.Sbrk(64),
		numMustSTMAddr:  m.Mem.Sbrk(64),
		lastSTMProc:     -1,
		PhasePollCycles: 60,
	}
}

// Name implements tm.System.
func (s *System) Name() string { return "phtm" }

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return s.stm.Stats() }

// Exec implements tm.System.
func (s *System) Exec(p *machine.Proc) tm.Exec {
	return &exec{s: s, u: btm.New(p), t: s.stm.Thread(p)}
}

type exec struct {
	s *System
	u *btm.Unit
	t *ustm.Thread

	// phaseAbort marks that the last hardware attempt aborted because a
	// software phase was (or became) active — retry after the phase
	// drains rather than failing over.
	phaseAbort bool
	onCommit   []func()
}

var _ tm.Exec = (*exec)(nil)

func (e *exec) Proc() *machine.Proc { return e.u.Proc() }

func (e *exec) Load(addr uint64) uint64 {
	v, out := e.Proc().NTRead(addr)
	if out.Kind != machine.OK {
		panic("phtm: read outcome " + out.Kind.String())
	}
	return v
}

func (e *exec) Store(addr, val uint64) {
	if out := e.Proc().NTWrite(addr, val); out.Kind != machine.OK {
		panic("phtm: write outcome " + out.Kind.String())
	}
}

// counter updates: the Go-side integer is authoritative; the simulated
// write provides the timing and — critically — the coherence kill of
// hardware transactions that read the counter transactionally.
func (e *exec) bumpSTM(d int) {
	e.s.numSTM += d
	if d > 0 {
		e.s.lastSTMProc = e.Proc().ID()
	}
	e.Store(e.s.numSTMAddr, uint64(e.s.numSTM))
}

func (e *exec) bumpMustSTM(d int) {
	e.s.numMustSTM += d
	e.Store(e.s.numMustSTMAddr, uint64(e.s.numMustSTM))
}

// Atomic implements tm.Exec with PhTM's phase logic.
func (e *exec) Atomic(body func(tm.Tx)) {
	age := e.s.m.NextAge()
	stats := e.s.Stats()
	cmgr := e.s.CM()
	p := e.Proc()
	p.TxLifeBegin()
	aborts := 0
	for {
		if e.s.numMustSTM > 0 {
			// An STM phase is in force: start directly in software.
			e.runSW(age, body, false)
			cmgr.TxDone(age)
			return
		}
		if e.s.numSTM > 0 {
			// Phase shifting back toward hardware: stall rather than add
			// more software transactions.
			e.Proc().Elapse(e.s.PhasePollCycles)
			continue
		}
		p.TxLifeAttempt(machine.PathHTM)
		reason, committed := e.tryHW(age, body)
		if committed {
			stats.HWCommits++
			p.TxLifeCommit(machine.PathHTM)
			cmgr.TxDone(age)
			for _, f := range e.onCommit {
				f()
			}
			return
		}
		p.TxLifeAbort(machine.PathHTM, reason)
		if e.phaseAbort {
			// Software transactions are in flight: loop to the phase
			// checks (stall or start in software as they dictate).
			continue
		}
		switch reason {
		case machine.AbortOverflow, machine.AbortSyscall, machine.AbortIO,
			machine.AbortException, machine.AbortNesting, machine.AbortExplicit:
			// Hardware cannot run this transaction: enter an STM phase.
			e.runSW(age, body, true)
			cmgr.TxDone(age)
			return
		case machine.AbortPageFault:
			cmgr.PageFaultStall(e.Proc())
			continue
		default:
			// Conflict, nonT-conflict (including the counter kill),
			// interrupt: retry; the phase checks above handle mode.
		}
		aborts++ // the policy clamps the shift (saturating counter)
		stats.HWRetries++
		if cmgr.OnAbort(e.Proc(), age, aborts, reason) != cm.EscalateNone {
			// Starving per the policy: a must-STM phase is PhTM's
			// serialization mechanism — it holds hardware out until this
			// transaction completes.
			e.runSW(age, body, true)
			cmgr.TxDone(age)
			return
		}
	}
}

// runSW executes the transaction in the STM, maintaining the phase
// counters. must marks a transaction that hardware cannot run (it holds
// the system in the STM phase until it completes).
func (e *exec) runSW(age uint64, body func(tm.Tx), must bool) {
	e.s.Stats().Failovers++
	e.bumpSTM(1)
	if must {
		e.bumpMustSTM(1)
	}
	ustm.RunTx(e.t, age, body)
	if must {
		e.bumpMustSTM(-1)
	}
	e.bumpSTM(-1)
}

func (e *exec) tryHW(age uint64, body func(tm.Tx)) (machine.AbortReason, bool) {
	e.phaseAbort = false
	e.onCommit = e.onCommit[:0]
	if !e.u.Begin(age) {
		return machine.AbortNesting, false
	}
	reason, retryReq, aborted := tm.Catch(func() {
		// Read the software-transaction count transactionally: if any
		// software transaction starts before we commit, the counter
		// update kills us (nonT conflict).
		v, out := e.u.Load(e.s.numSTMAddr)
		switch out.Kind {
		case machine.OK:
		case machine.HWAborted:
			tm.Unwind(out.Reason)
		default:
			panic("phtm: counter read outcome " + out.Kind.String())
		}
		if v != 0 {
			e.phaseAbort = true
			// The in-flight software phase caused this abort: attribute
			// it to the processor that last entered the phase.
			e.u.AbortAttributed(machine.AbortExplicit, e.s.lastSTMProc, e.s.numSTMAddr)
			tm.Unwind(machine.AbortExplicit)
		}
		body(hwTx{e})
	})
	if aborted {
		if retryReq {
			reason = machine.AbortExplicit
		}
		return reason, false
	}
	out := e.u.End()
	if out.Kind == machine.HWAborted {
		return out.Reason, false
	}
	return machine.AbortNone, true
}

// hwTx is PhTM's hardware handle: accesses are uninstrumented (phase
// exclusion replaces barriers).
type hwTx struct{ e *exec }

var _ tm.Tx = hwTx{}

func (h hwTx) Load(addr uint64) uint64 {
	v, out := h.e.u.Load(addr)
	switch out.Kind {
	case machine.OK:
		return v
	case machine.HWAborted:
		tm.Unwind(out.Reason)
	}
	panic("phtm: load outcome " + out.Kind.String())
}

func (h hwTx) Store(addr, val uint64) {
	out := h.e.u.Store(addr, val)
	switch out.Kind {
	case machine.OK:
		return
	case machine.HWAborted:
		tm.Unwind(out.Reason)
	}
	panic("phtm: store outcome " + out.Kind.String())
}

func (h hwTx) OnCommit(f func()) { h.e.onCommit = append(h.e.onCommit, f) }

func (h hwTx) Abort() {
	h.e.u.Abort(machine.AbortExplicit)
	tm.Unwind(machine.AbortExplicit)
}

// Nested implements tm.Tx: hardware transactions flatten closed nesting
// (as BTM does); an inner abort therefore aborts the whole transaction —
// which, under a hybrid, fails over to software where partial abort is
// supported.
func (h hwTx) Nested(body func()) bool {
	if !h.e.u.Begin(0) {
		tm.Unwind(machine.AbortNesting)
	}
	if tm.CatchNested(body) {
		h.e.u.Abort(machine.AbortExplicit)
		tm.Unwind(machine.AbortExplicit)
	}
	h.e.u.End()
	return true
}

func (h hwTx) Retry() {
	h.e.u.Abort(machine.AbortExplicit)
	tm.UnwindRetry()
}

func (h hwTx) Syscall() {
	h.e.u.Abort(machine.AbortSyscall)
	tm.Unwind(machine.AbortSyscall)
}
