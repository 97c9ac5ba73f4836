// Package seq provides the two non-transactional baselines: a sequential
// executor (the denominator of every speedup in the paper's §5 Figure 5)
// and a global-lock executor. Neither instruments memory accesses; Atomic
// bodies run directly against simulated memory.
package seq

import (
	"repro/internal/machine"
	"repro/internal/tm"
)

// Mode selects the baseline flavor.
type Mode uint8

const (
	// Sequential runs Atomic bodies with no synchronization at all; it is
	// only meaningful on a single-processor machine.
	Sequential Mode = iota
	// GlobalLock serializes Atomic bodies behind one test-and-set lock
	// (with the lock word in simulated memory, so lock contention costs
	// coherence traffic).
	GlobalLock
)

// System implements tm.System for both baselines.
type System struct {
	m     *machine.Machine
	mode  Mode
	stats tm.Stats

	lockAddr uint64
	locked   bool
	// SpinCycles is the poll interval while waiting for the lock.
	SpinCycles uint64
}

// New builds a baseline executor.
func New(m *machine.Machine, mode Mode) *System {
	s := &System{m: m, mode: mode, SpinCycles: 30}
	if mode == GlobalLock {
		s.lockAddr = m.Mem.Sbrk(64)
	}
	return s
}

// Name implements tm.System.
func (s *System) Name() string {
	if s.mode == GlobalLock {
		return "global-lock"
	}
	return "sequential"
}

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return &s.stats }

// Exec implements tm.System.
func (s *System) Exec(p *machine.Proc) tm.Exec { return &exec{s: s, p: p} }

type exec struct {
	s        *System
	p        *machine.Proc
	onCommit []func()
}

var _ tm.Exec = (*exec)(nil)

func (e *exec) Proc() *machine.Proc { return e.p }

func (e *exec) Load(addr uint64) uint64 {
	v, out := e.p.NTRead(addr)
	if out.Kind != machine.OK {
		panic("seq: read outcome " + out.Kind.String())
	}
	return v
}

func (e *exec) Store(addr, val uint64) {
	if out := e.p.NTWrite(addr, val); out.Kind != machine.OK {
		panic("seq: write outcome " + out.Kind.String())
	}
}

// Atomic implements tm.Exec. Explicit aborts restart the body; Retry
// polls (there is nothing to coordinate a real sleep with).
func (e *exec) Atomic(body func(tm.Tx)) {
	e.p.TxLifeBegin()
	if e.s.mode == GlobalLock {
		e.acquire()
		defer e.release()
	}
	for {
		// Both baselines serialize rather than speculate, so every
		// attempt is a fallback-path attempt.
		e.p.TxLifeAttempt(machine.PathFallback)
		e.onCommit = e.onCommit[:0]
		_, retry, aborted := tm.Catch(func() { body(directTx{e}) })
		if !aborted {
			e.s.stats.SWCommits++
			e.p.TxLifeCommit(machine.PathFallback)
			defer func() {
				for _, f := range e.onCommit {
					f()
				}
			}()
			return
		}
		if retry {
			e.p.TxLifeRetryWait()
			// Poll-based waiting: drop and re-take the lock so writers
			// can make progress.
			if e.s.mode == GlobalLock {
				e.release()
			}
			e.p.Elapse(2000)
			if e.s.mode == GlobalLock {
				e.acquire()
			}
		} else {
			// Explicit abort is the only way a direct body unwinds.
			e.p.TxLifeAbort(machine.PathFallback, machine.AbortExplicit)
		}
		e.s.stats.SWAborts++
	}
}

// acquire takes the global lock with a test-and-set loop. The
// read-check-set sequence is atomic because the simulation engine yields
// only at memory operations and the decision happens between them.
func (e *exec) acquire() {
	for {
		e.Load(e.s.lockAddr)
		if !e.s.locked {
			e.s.locked = true
			e.Store(e.s.lockAddr, 1)
			return
		}
		e.p.Elapse(e.s.SpinCycles)
	}
}

func (e *exec) release() {
	e.s.locked = false
	e.Store(e.s.lockAddr, 0)
}

// directTx runs body accesses straight against memory.
type directTx struct{ e *exec }

var _ tm.Tx = directTx{}

func (d directTx) Load(addr uint64) uint64 { return d.e.Load(addr) }
func (d directTx) Store(addr, val uint64)  { d.e.Store(addr, val) }
func (d directTx) OnCommit(f func())       { d.e.onCommit = append(d.e.onCommit, f) }

// Nested implements tm.Tx: the non-TM baselines flatten nesting and
// cannot roll back, so an inner abort restarts the whole body.
func (d directTx) Nested(body func()) bool {
	if tm.CatchNested(body) {
		tm.Unwind(0)
	}
	return true
}
func (d directTx) Abort()   { tm.Unwind(0) }
func (d directTx) Retry()   { tm.UnwindRetry() }
func (d directTx) Syscall() { d.e.p.Elapse(1) }
