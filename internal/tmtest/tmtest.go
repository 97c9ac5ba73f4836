// Package tmtest provides black-box correctness tooling for TM systems:
// a recording wrapper that captures every committed transaction's reads
// and writes, and a serializability checker that searches for a serial
// order explaining the recorded history. Any TM implementation in this
// repository can be dropped under the recorder and fuzzed.
//
// Paper: §2 (the serializability and strong-atomicity semantics the
// checker enforces).
package tmtest

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/tm"
)

// Access is one (address, value) observation.
type Access struct {
	Addr uint64
	Val  uint64
}

// TxRecord is one committed transaction: the values it observed for the
// addresses it read before writing them, and the final values it wrote.
type TxRecord struct {
	Proc   int
	Reads  []Access
	Writes []Access
}

// Recorder wraps a tm.System and captures the history of committed
// transactions. The simulation engine serializes processors, so no
// locking is needed.
type Recorder struct {
	inner   tm.System
	History []TxRecord
}

// NewRecorder wraps sys.
func NewRecorder(sys tm.System) *Recorder { return &Recorder{inner: sys} }

// Name implements tm.System.
func (r *Recorder) Name() string { return r.inner.Name() + "+recorded" }

// Stats implements tm.System.
func (r *Recorder) Stats() *tm.Stats { return r.inner.Stats() }

// Exec implements tm.System.
func (r *Recorder) Exec(p *machine.Proc) tm.Exec {
	return &recExec{r: r, inner: r.inner.Exec(p), proc: p.ID()}
}

type recExec struct {
	r     *Recorder
	inner tm.Exec
	proc  int

	// current attempt's observations (reset on each body invocation,
	// since aborted attempts re-execute).
	reads    map[uint64]uint64
	readIdx  []uint64
	writes   map[uint64]uint64
	writeIdx []uint64

	// closed-nesting savepoints over the observation state.
	nestSaves []recSave
	wUndo     []recWUndo
}

type recSave struct{ writeLen, undoLen int }

type recWUndo struct {
	addr    uint64
	hadPrev bool
	prev    uint64
}

var _ tm.Exec = (*recExec)(nil)

func (e *recExec) Proc() *machine.Proc  { return e.inner.Proc() }
func (e *recExec) Load(a uint64) uint64 { return e.inner.Load(a) }
func (e *recExec) Store(a, v uint64)    { e.inner.Store(a, v) }

// Atomic implements tm.Exec: the inner body is wrapped so that each
// (re-)execution starts a fresh observation set; the record of the final
// (committed) execution is appended after Atomic returns. No simulated
// time passes between the inner commit's completion and the append for
// systems whose Atomic returns without further scheduling points after
// commit; for eager STMs whose entry release yields, the checker's
// order search (rather than strict append order) absorbs the skew.
func (e *recExec) Atomic(body func(tm.Tx)) {
	e.inner.Atomic(func(tx tm.Tx) {
		e.reads = map[uint64]uint64{}
		e.readIdx = e.readIdx[:0]
		e.writes = map[uint64]uint64{}
		e.writeIdx = e.writeIdx[:0]
		e.nestSaves = e.nestSaves[:0]
		e.wUndo = e.wUndo[:0]
		body(recTx{e: e, inner: tx})
	})
	rec := TxRecord{Proc: e.proc}
	for _, a := range e.readIdx {
		rec.Reads = append(rec.Reads, Access{Addr: a, Val: e.reads[a]})
	}
	for _, a := range e.writeIdx {
		rec.Writes = append(rec.Writes, Access{Addr: a, Val: e.writes[a]})
	}
	e.r.History = append(e.r.History, rec)
}

type recTx struct {
	e     *recExec
	inner tm.Tx
}

var _ tm.Tx = recTx{}

func (t recTx) Load(addr uint64) uint64 {
	v := t.inner.Load(addr)
	e := t.e
	// Record only reads of values this transaction did not itself write,
	// and only the first such read per address (later reads of the same
	// address must return the same value under isolation anyway).
	if _, wrote := e.writes[addr]; !wrote {
		if _, seen := e.reads[addr]; !seen {
			e.reads[addr] = v
			e.readIdx = append(e.readIdx, addr)
		}
	}
	return v
}

func (t recTx) Store(addr, val uint64) {
	t.inner.Store(addr, val)
	e := t.e
	prev, seen := e.writes[addr]
	if !seen {
		e.writeIdx = append(e.writeIdx, addr)
	}
	if len(e.nestSaves) > 0 {
		e.wUndo = append(e.wUndo, recWUndo{addr: addr, hadPrev: seen, prev: prev})
	}
	e.writes[addr] = val
}

func (t recTx) Abort() { t.inner.Abort() }

// Nested records through the nest, keeping a savepoint over the write
// observations: a partial abort reverts recorded writes (the data never
// committed) while keeping recorded reads (the transaction really did
// observe those values).
func (t recTx) Nested(body func()) bool {
	e := t.e
	e.nestSaves = append(e.nestSaves, recSave{writeLen: len(e.writeIdx), undoLen: len(e.wUndo)})
	committed := t.inner.Nested(body)
	sv := e.nestSaves[len(e.nestSaves)-1]
	e.nestSaves = e.nestSaves[:len(e.nestSaves)-1]
	if !committed {
		for i := len(e.wUndo) - 1; i >= sv.undoLen; i-- {
			u := e.wUndo[i]
			if u.hadPrev {
				e.writes[u.addr] = u.prev
			} else {
				delete(e.writes, u.addr)
			}
		}
		e.writeIdx = e.writeIdx[:sv.writeLen]
		e.wUndo = e.wUndo[:sv.undoLen]
	}
	// On commit the nest's undo entries are kept: they now belong to the
	// enclosing nest, which may still abort past them.
	return committed
}
func (t recTx) Retry()            { t.inner.Retry() }
func (t recTx) Syscall()          { t.inner.Syscall() }
func (t recTx) OnCommit(f func()) { t.inner.OnCommit(f) }

// CheckSerializable searches for a serial order of the history that is
// consistent with every transaction's observed reads, starting from the
// given initial memory image (addresses absent from the map read as
// zero). It returns nil if such an order exists. The search is a
// depth-first backtracking over candidate next-transactions (those whose
// reads match the current replay state), biased toward history order; a
// step budget bounds pathological cases.
func CheckSerializable(history []TxRecord, initial map[uint64]uint64) error {
	state := make(map[uint64]uint64, len(initial))
	for k, v := range initial {
		state[k] = v
	}
	used := make([]bool, len(history))
	steps := 0
	const maxSteps = 2_000_000
	var search func(done int) bool
	search = func(done int) bool {
		if done == len(history) {
			return true
		}
		for i, rec := range history {
			if used[i] {
				continue
			}
			steps++
			if steps > maxSteps {
				return false
			}
			if !readsMatch(rec, state) {
				continue
			}
			// Apply, recurse, undo.
			undo := make([]Access, 0, len(rec.Writes))
			for _, w := range rec.Writes {
				undo = append(undo, Access{Addr: w.Addr, Val: state[w.Addr]})
				state[w.Addr] = w.Val
			}
			used[i] = true
			if search(done + 1) {
				return true
			}
			used[i] = false
			for j := len(undo) - 1; j >= 0; j-- {
				state[undo[j].Addr] = undo[j].Val
			}
		}
		return false
	}
	if search(0) {
		return nil
	}
	if steps > maxSteps {
		return fmt.Errorf("tmtest: serializability search exceeded %d steps (inconclusive)", maxSteps)
	}
	return fmt.Errorf("tmtest: no serial order explains the %d-transaction history", len(history))
}

func readsMatch(rec TxRecord, state map[uint64]uint64) bool {
	for _, r := range rec.Reads {
		if state[r.Addr] != r.Val {
			return false
		}
	}
	return true
}
