// Package sim provides a deterministic, execution-driven multiprocessor
// simulation engine, the foundation of the paper's §5.1 simulation
// methodology.
//
// Each simulated processor runs its workload on a dedicated goroutine, but
// the engine globally serializes execution: exactly one processor goroutine
// runs at any instant, and the engine always resumes the runnable processor
// with the smallest local clock (ties broken by processor ID). Memory
// operations performed by the layers above are therefore atomic at their
// timestamp, interleavings are bit-reproducible for a given configuration,
// and no locking is needed anywhere in the simulated machine.
//
// Time is measured in cycles. Workload code advances its processor's clock
// with Proc.Elapse, which is also the engine's only scheduling point: a
// processor that never elapses time never yields. All layers above charge
// every modeled action (cache hits, coherence transfers, instruction
// overhead) through Elapse.
//
// # Scheduling hot path
//
// The default scheduler is a run-ahead fast path (DESIGN.md §12). The
// engine keeps every ready, not-currently-executing processor in an
// indexed min-heap ordered by (clock, id); the heap minimum is the
// "horizon" — the earliest instant at which any other processor could be
// entitled to run. The executing processor compares its clock against the
// horizon on every Elapse and keeps executing inline, with zero channel
// operations, for as long as it remains the strict (clock, id) minimum.
// Only when its clock crosses the horizon does it take the slow path:
// push itself back into the heap, pop the new minimum, and hand the
// execution token directly to that processor's goroutine (the engine
// goroutine in Run only participates at startup and termination). The
// schedule this produces is exactly the one the naive
// pick-the-global-minimum-every-Elapse scheduler produces; the retained
// reference implementation (Config.Reference) is the executable
// specification, and differential tests pin the two to identical step
// sequences.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// State describes what a processor is currently doing, from the engine's
// point of view.
type State uint8

const (
	// Ready means the processor can be scheduled.
	Ready State = iota
	// Blocked means the processor is descheduled until another processor
	// wakes it (used for transactional waiting).
	Blocked
	// Done means the processor's workload function returned.
	Done
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Config holds engine-wide settings. The configuration fully determines
// the schedule: two runs with equal Config and workloads produce
// bit-identical step sequences regardless of which scheduler
// (fast or Reference) executes them.
type Config struct {
	// Procs is the number of simulated processors.
	Procs int
	// Quantum is the scheduling-timer period in cycles. Every time a
	// processor's clock crosses a multiple of Quantum, its interrupt hook
	// fires (modeling a timer interrupt). Zero disables timer interrupts.
	Quantum uint64
	// MaxSteps bounds the total number of scheduling steps before the
	// engine panics with a livelock diagnostic. Zero selects a large
	// default.
	MaxSteps uint64
	// Reference selects the retained reference scheduler: every Elapse
	// yields to the engine goroutine, which re-picks the minimum
	// (clock, id) processor by linear scan. It is the executable
	// specification of the scheduling order — slow but obviously correct —
	// kept for differential testing of the run-ahead fast path. Simulated
	// results are bit-identical between the two.
	Reference bool
}

const defaultMaxSteps = 2_000_000_000

// Engine owns the simulated processors and the global clock ordering.
type Engine struct {
	cfg      Config
	procs    []*Proc
	steps    uint64
	panicked any

	// Fast-path scheduler state. ready holds every Ready processor that
	// is not currently executing, ordered by (clock, id); ready[0] is the
	// run-ahead horizon. Entries never change their key while in the heap
	// (only the executing processor advances its own clock, and Wake bumps
	// a sleeper's clock before pushing it), so the heap needs push and pop
	// but never a decrease-key. All of this state is owned by whichever
	// goroutine currently holds the execution token; token handoffs are
	// channel-synchronized, so no locking is needed.
	ready   []*Proc
	notDone int
	doneCh  chan struct{}
	termMsg string
}

// New creates an engine with cfg.Procs processors, all at cycle 0. The
// engine holds no hidden state beyond cfg: constructing two engines from
// the same Config yields identical (deterministic) schedules.
func New(cfg Config) *Engine {
	if cfg.Procs <= 0 {
		panic("sim: Config.Procs must be positive")
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = defaultMaxSteps
	}
	e := &Engine{cfg: cfg}
	for i := 0; i < cfg.Procs; i++ {
		e.procs = append(e.procs, &Proc{
			id:      i,
			eng:     e,
			state:   Ready,
			heapIdx: -1,
			grant:   make(chan struct{}),
			yield:   make(chan struct{}),
			quantum: cfg.Quantum,
		})
	}
	return e
}

// Procs returns the engine's processors in ID order. The slice is fixed
// at construction; reading it requires no scheduling coordination.
func (e *Engine) Procs() []*Proc { return e.procs }

// Proc returns the processor with the given ID. The mapping is fixed at
// construction; reading it requires no scheduling coordination.
func (e *Engine) Proc(id int) *Proc { return e.procs[id] }

// Run executes one workload function per processor and returns when every
// workload has returned. Workload i runs on processor i; len(workloads)
// must equal the processor count. Run panics (with a state dump) if all
// unfinished processors are blocked, which would otherwise deadlock, or if
// the step budget is exhausted, which indicates livelock. A workload panic
// is captured by the panicking processor (first panic in schedule order
// wins, deterministically) and re-raised from Run.
func (e *Engine) Run(workloads []func(*Proc)) {
	if len(workloads) != len(e.procs) {
		panic(fmt.Sprintf("sim: %d workloads for %d processors", len(workloads), len(e.procs)))
	}
	if e.cfg.Reference {
		e.runReference(workloads)
		return
	}
	e.runFast(workloads)
}

// runFast is the run-ahead scheduler. The engine goroutine seeds the heap,
// grants the first processor, and then parks until the processors —
// passing the execution token directly among themselves — signal
// termination (all done, deadlock, livelock, or a workload panic).
func (e *Engine) runFast(workloads []func(*Proc)) {
	e.doneCh = make(chan struct{})
	e.termMsg = ""
	e.notDone = 0
	e.ready = e.ready[:0]
	for _, p := range e.procs {
		if p.state != Done {
			e.notDone++
		}
		if p.state == Ready {
			e.heapPush(p)
		}
	}
	for i, w := range workloads {
		p, body := e.procs[i], w
		go func() {
			defer p.finish()
			<-p.grant
			body(p)
		}()
	}
	first := e.heapPop()
	if first == nil {
		if e.notDone == 0 {
			return
		}
		panic("sim: deadlock — all unfinished processors are blocked\n" + e.dump())
	}
	e.steps++
	first.grant <- struct{}{}
	<-e.doneCh
	if e.panicked != nil {
		panic(e.panicked)
	}
	if e.termMsg != "" {
		panic(e.termMsg)
	}
}

// runReference is the retained reference scheduler: the engine goroutine
// re-picks the minimum (clock, id) ready processor by linear scan after
// every single Elapse, paying two channel handoffs per scheduling step.
func (e *Engine) runReference(workloads []func(*Proc)) {
	for i, w := range workloads {
		p, body := e.procs[i], w
		go func() {
			defer func() {
				// Workload panics are captured per processor; only the
				// engine goroutine promotes one to e.panicked, so the
				// capture is single-writer and first-in-schedule-order.
				if r := recover(); r != nil {
					p.panicVal = r
				}
				p.state = Done
				p.yield <- struct{}{}
			}()
			<-p.grant
			body(p)
		}()
	}
	for {
		p := e.pick()
		if p == nil {
			return
		}
		e.steps++
		if e.steps > e.cfg.MaxSteps {
			panic("sim: step budget exhausted (livelock?)\n" + e.dump())
		}
		p.grant <- struct{}{}
		<-p.yield
		if p.state == Done && p.panicVal != nil {
			if e.panicked == nil {
				e.panicked = p.panicVal
			}
			panic(e.panicked)
		}
	}
}

// pick returns the ready processor with the smallest clock (ties broken by
// ID), nil if every processor is done, and panics on deadlock. It is the
// reference scheduler's O(n) selection; the fast path replaces it with the
// ready heap.
func (e *Engine) pick() *Proc {
	var best *Proc
	allDone := true
	for _, p := range e.procs {
		if p.state != Done {
			allDone = false
		}
		if p.state != Ready {
			continue
		}
		if best == nil || p.now < best.now {
			best = p
		}
	}
	if best == nil {
		if allDone {
			return nil
		}
		panic("sim: deadlock — all unfinished processors are blocked\n" + e.dump())
	}
	return best
}

// Now returns the maximum clock across all processors: the simulated
// duration of the run so far. Call it between runs or from the
// processor holding the execution token; either reading is
// deterministic.
func (e *Engine) Now() uint64 {
	var max uint64
	for _, p := range e.procs {
		if p.now > max {
			max = p.now
		}
	}
	return max
}

// Steps reports how many scheduling steps the engine has performed.
func (e *Engine) Steps() uint64 { return e.steps }

func (e *Engine) dump() string {
	var b strings.Builder
	ps := append([]*Proc(nil), e.procs...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
	for _, p := range ps {
		fmt.Fprintf(&b, "  proc %d: %s at cycle %d (%s)\n", p.id, p.state, p.now, p.note)
	}
	return b.String()
}
