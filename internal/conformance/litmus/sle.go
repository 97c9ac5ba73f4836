package litmus

import (
	"repro/internal/machine"
	"repro/internal/sle"
	"repro/internal/tm"
)

// sleSystem adapts speculative lock elision to tm.System so the litmus
// executor (and tmtest.Recorder) can drive it like the real TM systems:
// Atomic becomes a critical section under one program-wide elidable
// lock. SLE is the paper's §3.1 aside that hardware atomicity is useful
// beyond TM, and it is exactly the kind of system the litmus suite needs
// to separate — elided sections are strongly atomic (they run as
// hardware transactions the coherence protocol defends), but the
// lock-acquisition fallback writes in place where a non-transactional
// reader can see intermediate state.
type sleSystem struct {
	mgr   *sle.Manager
	lock  sle.Lock
	stats tm.Stats
}

func newSLESystem(m *machine.Machine) *sleSystem {
	mgr := sle.New(m)
	return &sleSystem{mgr: mgr, lock: mgr.NewLock()}
}

func (s *sleSystem) Name() string     { return "sle" }
func (s *sleSystem) Stats() *tm.Stats { return &s.stats }

func (s *sleSystem) Exec(p *machine.Proc) tm.Exec {
	return &sleExec{sys: s, e: s.mgr.Exec(p), p: p}
}

type sleExec struct {
	sys *sleSystem
	e   *sle.Exec
	p   *machine.Proc
}

var _ tm.Exec = (*sleExec)(nil)

func (e *sleExec) Proc() *machine.Proc { return e.p }

func (e *sleExec) Load(addr uint64) uint64 {
	v, out := e.p.NTRead(addr)
	if out.Kind != machine.OK {
		panic("litmus/sle: read outcome " + out.Kind.String())
	}
	return v
}

func (e *sleExec) Store(addr, val uint64) {
	if out := e.p.NTWrite(addr, val); out.Kind != machine.OK {
		panic("litmus/sle: write outcome " + out.Kind.String())
	}
}

func (e *sleExec) Atomic(body func(tm.Tx)) {
	e.e.Critical(e.sys.lock, func(mem sle.Mem) {
		body(sleTx{mem: mem})
	})
	e.sys.stats.HWCommits++ // counted as one critical section; split in sle.Stats
}

// sleTx exposes the critical-section accessor as a tm.Tx. Litmus bodies
// use only Load and Store; the transactional extensions have no lock
// analogue and panic if reached.
type sleTx struct{ mem sle.Mem }

var _ tm.Tx = sleTx{}

func (t sleTx) Load(addr uint64) uint64 { return t.mem.Load(addr) }
func (t sleTx) Store(addr, val uint64)  { t.mem.Store(addr, val) }

func (t sleTx) Abort()          { panic("litmus/sle: Abort unsupported under lock elision") }
func (t sleTx) Retry()          { panic("litmus/sle: Retry unsupported under lock elision") }
func (t sleTx) Syscall()        { panic("litmus/sle: Syscall unsupported under lock elision") }
func (t sleTx) OnCommit(func()) { panic("litmus/sle: OnCommit unsupported under lock elision") }
func (t sleTx) Nested(body func()) bool {
	panic("litmus/sle: Nested unsupported under lock elision")
}
