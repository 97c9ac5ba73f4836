// Package machine composes the simulation engine, simulated memory, and
// cache models into the multiprocessor that every TM system in this
// repository runs on. It implements the two hardware primitives of the
// paper at the architectural level:
//
//   - the transactional-execution substrate used by BTM and the unbounded
//     HTM: per-processor speculative read/write line-sets, a speculative
//     store buffer, coherence-based eager conflict detection with
//     age-ordered NACK/abort resolution, and L1-occupancy-driven overflow
//     detection; and
//
//   - UFO, user-mode fine-grained memory protection: per-line
//     fault-on-read/fault-on-write bits (stored in package mem) whose
//     modification requires exclusive coherence permission — which is the
//     mechanism by which software transactions kill conflicting hardware
//     transactions.
//
// Higher layers (internal/btm, internal/ustm, internal/core, ...) express
// TM policy; this package only provides mechanism, following the paper's
// "primitives, not solutions" philosophy.
//
// Paper: §3 (the two primitives) and §4 (how the hybrid composes them).
package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
)

// AbortReason enumerates why a hardware transaction aborted, mirroring the
// BTM status register of Table 1 plus the UFO-interaction reasons the
// paper's Figure 6 reports.
type AbortReason uint8

const (
	// AbortNone means no abort is pending.
	AbortNone AbortReason = iota
	// AbortOverflow: a transactional line was evicted from the L1 set.
	AbortOverflow
	// AbortExplicit: software executed btm_abort.
	AbortExplicit
	// AbortInterrupt: a timer interrupt arrived mid-transaction.
	AbortInterrupt
	// AbortConflict: lost an age-ordered conflict with another HW transaction.
	AbortConflict
	// AbortException: the transaction raised a non-page-fault exception.
	AbortException
	// AbortSyscall: the transaction invoked a system call.
	AbortSyscall
	// AbortIO: the transaction performed I/O.
	AbortIO
	// AbortPageFault: the transaction touched an unmapped page (recoverable).
	AbortPageFault
	// AbortUFOKill: killed by another thread's set_ufo_bits needing
	// exclusive permission on a line in this transaction's footprint.
	AbortUFOKill
	// AbortUFOFault: the transaction accessed a UFO-protected line and the
	// policy chose to abort rather than stall.
	AbortUFOFault
	// AbortNonTConflict: a non-transactional access conflicted with this
	// transaction's footprint (HTM strong atomicity).
	AbortNonTConflict
	// AbortNesting: hardware nesting depth exceeded.
	AbortNesting

	numAbortReasons
)

var abortNames = [numAbortReasons]string{
	"none", "overflow", "explicit", "interrupt", "conflict", "exception",
	"syscall", "io", "page-fault", "ufo-kill", "ufo-fault", "nonT-conflict",
	"nesting",
}

// String returns the abort-reason name used in reports and traces.
func (r AbortReason) String() string {
	if int(r) < len(abortNames) {
		return abortNames[r]
	}
	return fmt.Sprintf("AbortReason(%d)", uint8(r))
}

// NumAbortReasons is the size of per-reason counter arrays.
const NumAbortReasons = int(numAbortReasons)

// OutcomeKind classifies the result of a memory operation.
type OutcomeKind uint8

const (
	// OK: the operation completed.
	OK OutcomeKind = iota
	// Nacked: the requester lost an age-ordered conflict and must back off
	// and retry (the paper's 20-cycle NACK).
	Nacked
	// UFOFault: the access hit a UFO-protected line with faults enabled;
	// the access did not complete.
	UFOFault
	// HWAborted: the processor's own hardware transaction has (or had) a
	// pending abort; the operation did not complete and the transaction
	// state is already flash-cleared.
	HWAborted
)

// String returns the outcome-kind name used in reports and traces.
func (k OutcomeKind) String() string {
	switch k {
	case OK:
		return "ok"
	case Nacked:
		return "nacked"
	case UFOFault:
		return "ufo-fault"
	case HWAborted:
		return "hw-aborted"
	}
	return fmt.Sprintf("OutcomeKind(%d)", uint8(k))
}

// Outcome is the result of a memory operation.
type Outcome struct {
	Kind   OutcomeKind
	Reason AbortReason // valid when Kind == HWAborted
	Addr   uint64      // faulting address when Kind == UFOFault
}

var okOutcome = Outcome{Kind: OK}

// ContentionPolicy selects how conflicting hardware transactions are
// resolved (the Figure 8 sensitivity axis).
type ContentionPolicy uint8

const (
	// AgeOrdered is the paper's policy: an older requester aborts the
	// owner; a younger requester is NACKed and retries.
	AgeOrdered ContentionPolicy = iota
	// RequesterWins always aborts the current owner (the naive policy the
	// paper shows performs like an STM under contention).
	RequesterWins
)

// Params is the machine configuration (the Table 4 analogue). Together
// with the workloads it fully determines a run: same Params, same seed,
// same results, bit-identical under every scheduler selection.
type Params struct {
	Procs   int
	L1Bytes int
	L1Ways  int

	L1HitCycles    uint64
	L2HitCycles    uint64
	MemCycles      uint64
	TransferCycles uint64
	NackCycles     uint64 // NACK retry delay
	UFOOpCycles    uint64 // set/add/read_ufo_bits instruction cost

	Quantum  uint64
	MemBytes uint64
	MaxSteps uint64
	Seed     uint64

	// ReferenceScheduler runs the machine on the engine's retained
	// reference scheduler instead of the run-ahead fast path (sim.Config.
	// Reference). Simulated results are bit-identical; differential tests
	// use it to pin the fast path to the specification.
	ReferenceScheduler bool

	HWPolicy ContentionPolicy
	// TrueConflictUFOKills enables the Figure 8 limit study: set_ufo_bits
	// only aborts hardware transactions whose footprint truly conflicts
	// with the protection being installed.
	TrueConflictUFOKills bool
	// OwnerStateUFO enables the paper's first proposed mitigation for
	// UFO/BTM false conflicts: installing fault-on-write protection in
	// the coherence owner state, without invalidating (or killing)
	// read-only sharers.
	OwnerStateUFO bool
	// LazyUFOClear enables the second proposed mitigation: protection
	// downgrades (clears) take effect without eagerly invalidating other
	// copies, so releasing read-mostly data kills no hardware readers.
	LazyUFOClear bool
}

// DefaultParams returns the baseline configuration used throughout the
// evaluation, seeded so that runs are reproducible out of the box.
func DefaultParams(procs int) Params {
	return Params{
		Procs:          procs,
		L1Bytes:        32 * 1024,
		L1Ways:         4,
		L1HitCycles:    1,
		L2HitCycles:    20,
		MemCycles:      300,
		TransferCycles: 60,
		NackCycles:     20,
		UFOOpCycles:    6,
		Quantum:        200_000,
		MemBytes:       1 << 24,
		Seed:           1,
	}
}

// TxPath classifies the execution mode of one transaction attempt for
// lifecycle accounting: the hardware fast path, the strongly-atomic
// software path (UFO-protected USTM), the weakly-atomic software path,
// or a serialized fallback (token holder, global lock, SLE real lock).
type TxPath uint8

// The attempt paths.
const (
	// PathHTM: a hardware (BTM / unbounded / elided) attempt.
	PathHTM TxPath = iota
	// PathUFO: a software attempt under UFO strong atomicity (§4).
	PathUFO
	// PathSW: a weakly-atomic software attempt (USTM without UFO, TL2,
	// the HyTM/PhTM software halves).
	PathSW
	// PathFallback: a serialized attempt — commit-token holder, global
	// lock, or SLE's real lock acquisition.
	PathFallback
	// NumTxPaths sizes per-path arrays.
	NumTxPaths = iota
)

var txPathNames = []string{"htm", "ufo", "sw", "fallback"}

// String returns the path name used in reports and trace exports.
func (p TxPath) String() string {
	if int(p) < len(txPathNames) {
		return txPathNames[p]
	}
	return fmt.Sprintf("TxPath(%d)", uint8(p))
}

// TxPathByName maps a report name back to its TxPath; ok is false for
// unknown names.
func TxPathByName(name string) (TxPath, bool) {
	for i, n := range txPathNames {
		if n == name {
			return TxPath(i), true
		}
	}
	return 0, false
}

// Counters aggregates machine-level event counts.
type Counters struct {
	HWAbortsByReason [NumAbortReasons]uint64
	HWCommits        uint64
	Nacks            uint64
	UFOKillsTrue     uint64
	UFOKillsFalse    uint64
	UFOFaults        uint64
	ConflictSTMOlder uint64 // STM-vs-HTM conflicts where the STM tx was older
	ConflictHTMOlder uint64
	// Footprint histograms of committed transactions (distinct lines).
	HWFootprint obs.Histogram
	SWFootprint obs.Histogram
}

// Machine is the simulated multiprocessor. Its shared state (memory,
// directory, counters, event subscribers, age sequence, Rand) is mutated
// only from Proc methods running on the processor that holds the
// execution token, so mutations serialize in (cycle, proc id) step
// order. Results are therefore bit-identical across schedulers.
type Machine struct {
	Params
	Eng   *sim.Engine
	Mem   *mem.Memory
	Rand  *sim.Rand
	Count Counters

	dir   *cache.Directory
	warm  map[uint64]bool // lines that have been fetched at least once
	procs []*Proc
	txSeq uint64
	subs  [numTraceKinds][]Subscriber // per kind, in Subscribe order
}

// New builds a machine from params. All state derives from params (the
// RNG from params.Seed), so equal Params build machines whose runs are
// deterministic replicas of each other.
func New(p Params) *Machine {
	if p.Procs <= 0 {
		panic("machine: Procs must be positive")
	}
	if p.Procs > cache.MaxProcs {
		panic(fmt.Sprintf("machine: Procs %d exceeds the directory's %d-processor limit", p.Procs, cache.MaxProcs))
	}
	m := &Machine{
		Params: p,
		Eng: sim.New(sim.Config{
			Procs:     p.Procs,
			Quantum:   p.Quantum,
			MaxSteps:  p.MaxSteps,
			Reference: p.ReferenceScheduler,
		}),
		Mem:  mem.New(p.MemBytes),
		Rand: sim.NewRand(p.Seed),
		dir:  cache.NewDirectory(),
		warm: make(map[uint64]bool),
	}
	// Reserve the first page so fixed low addresses used by small tests
	// and examples never collide with Sbrk-allocated metadata (otables,
	// lock tables, heaps).
	m.Mem.Sbrk(mem.PageBytes)
	for i := 0; i < p.Procs; i++ {
		mp := &Proc{
			m:   m,
			sp:  m.Eng.Proc(i),
			l1:  cache.NewL1(p.L1Bytes, mem.LineBytes, p.L1Ways),
			ufo: true, // threads start with UFO faults enabled
		}
		m.procs = append(m.procs, mp)
		mp.sp.OnInterrupt(mp.timerInterrupt)
	}
	return m
}

// Procs returns the machine's processors in ID order. The slice is
// fixed at construction, so the read is deterministic.
func (m *Machine) Procs() []*Proc { return m.procs }

// Proc returns processor id. The mapping is fixed at construction, so
// the read is deterministic.
func (m *Machine) Proc(id int) *Proc { return m.procs[id] }

// NextAge returns a fresh, globally ordered transaction age (smaller is
// older). Both HW and SW transactions draw from the same sequence so that
// cross-system age comparisons are meaningful. The sequence is shared;
// only the processor holding the execution token draws from it, so the
// draw order is the (cycle, id) schedule order.
func (m *Machine) NextAge() uint64 {
	m.txSeq++
	return m.txSeq
}

// Run executes one workload per processor to completion under the
// scheduler Params selected; the observable result is identical for all
// of them. Run itself must not be called concurrently.
func (m *Machine) Run(workloads []func(*Proc)) {
	if len(workloads) != len(m.procs) {
		panic(fmt.Sprintf("machine: %d workloads for %d processors", len(workloads), len(m.procs)))
	}
	ws := make([]func(*sim.Proc), len(workloads))
	for i, w := range workloads {
		mp, body := m.procs[i], w
		ws[i] = func(*sim.Proc) { body(mp) }
	}
	m.Eng.Run(ws)
}

// Cycles returns the simulated duration so far. Like sim.Engine.Now it
// is meant for between-runs reads, or mid-run reads from the processor
// holding the execution token; either reading is deterministic.
func (m *Machine) Cycles() uint64 { return m.Eng.Now() }

// CheckConsistency validates the machine's internal invariants: the
// directory and the per-processor L1s agree exactly, and speculative
// state only exists inside in-flight transactions. Tests call this after
// (and during) stress runs; it is not part of the simulated semantics.
// It reads shared state, so call it between runs, or mid-run only from
// the processor holding the execution token, where the check is
// deterministic.
func (m *Machine) CheckConsistency() error {
	// Every L1-resident line is registered in the directory...
	for _, p := range m.procs {
		for _, line := range p.l1.Lines() {
			if !m.dir.HeldBy(line, p.ID()) {
				return fmt.Errorf("machine: proc %d caches line %d but the directory disagrees", p.ID(), line)
			}
		}
	}
	// ...and every directory entry is backed by a resident line.
	var err error
	m.dir.ForEach(func(line uint64, sharers cache.ProcSet) {
		if err != nil {
			return
		}
		for _, i := range sharers.Procs() {
			if !m.procs[i].l1.Contains(line) {
				err = fmt.Errorf("machine: directory lists proc %d for line %d but its L1 disagrees", i, line)
			}
		}
	})
	if err != nil {
		return err
	}
	// Speculative values imply an in-flight transaction that wrote them.
	for _, p := range m.procs {
		if p.hw == nil {
			continue
		}
		for addr := range p.hw.Spec {
			line := mem.LineOf(addr)
			if _, ok := p.hw.WriteSet[line]; !ok {
				return fmt.Errorf("machine: proc %d has speculative data at %#x outside its write set", p.ID(), addr)
			}
		}
	}
	return nil
}
