//go:build go1.23

// Package sim provides a deterministic, execution-driven multiprocessor
// simulation engine, the foundation of the paper's §5.1 simulation
// methodology.
//
// Each simulated processor runs its workload as a coroutine (iter.Pull),
// and one engine loop in Run resumes them one at a time: exactly one
// processor runs at any instant, and the engine always resumes the
// runnable processor with the smallest local clock (ties broken by
// processor ID). Memory operations performed by the layers above are
// therefore atomic at their timestamp, interleavings are bit-reproducible
// for a given configuration, and no locking is needed anywhere in the
// simulated machine.
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
// horizon on every Elapse and keeps executing inline, without leaving its
// coroutine, for as long as it remains the strict (clock, id) minimum.
// Only when its clock crosses the horizon does it yield back to the engine
// loop, which pushes it into the heap, pops the new minimum and resumes
// that processor. The schedule this produces is exactly the one the naive
// pick-the-global-minimum-every-Elapse scheduler produces; the retained
// reference implementation (Config.Reference) is the executable
// specification, and differential tests pin the two to identical step
// sequences.
package sim

import (
	"fmt"
	"iter"
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
	// yields to the engine loop, which re-picks the minimum
	// (clock, id) processor by linear scan. It is the executable
	// specification of the scheduling order — slow but obviously correct —
	// kept for differential testing of the run-ahead fast path. Simulated
	// results are bit-identical between the two.
	Reference bool
}

const defaultMaxSteps = 2_000_000_000

// Engine owns the simulated processors and the global clock ordering.
type Engine struct {
	cfg   Config
	procs []*Proc
	steps uint64

	// Fast-path scheduler state. ready holds every Ready processor that
	// is not currently executing, ordered by (clock, id); ready[0] is the
	// run-ahead horizon. Entries never change their key while in the heap
	// (only the executing processor advances its own clock, and Wake bumps
	// a sleeper's clock before pushing it), so the heap needs push and pop
	// but never a decrease-key. Only the executing processor and the
	// engine loop touch it, never at the same time, so no locking is
	// needed.
	ready []*Proc
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
// leaves its coroutine and is re-raised from Run with the same value; the
// engine stops at the first one, so the first panic in schedule order
// wins, deterministically. When Run ends early, it stops the coroutine of
// every processor still suspended, which then runs no further workload
// code.
func (e *Engine) Run(workloads []func(*Proc)) {
	if len(workloads) != len(e.procs) {
		panic(fmt.Sprintf("sim: %d workloads for %d processors", len(workloads), len(e.procs)))
	}
	ref := e.cfg.Reference
	e.ready = e.ready[:0]
	for i, w := range workloads {
		p := e.procs[i]
		var stop func()
		p.resume, stop = iter.Pull(p.coroutine(w))
		defer stop()
		if p.state == Ready && !ref {
			e.heapPush(p)
		}
	}
	if !ref && len(e.ready) > 0 {
		e.steps++ // the first resume
	}
	for {
		var p *Proc
		if ref {
			if p = e.pick(); p != nil {
				e.step()
			}
		} else {
			p = e.heapPop()
		}
		if p == nil {
			break
		}
		if _, ok := p.resume(); !ok {
			p.state = Done
		}
		if !ref {
			e.step()
			if p.state == Ready {
				e.heapPush(p)
			}
		}
	}
	for _, p := range e.procs {
		if p.state != Done {
			panic("sim: deadlock — all unfinished processors are blocked\n" + e.dump())
		}
	}
}

// step counts one scheduling step and enforces the step budget.
func (e *Engine) step() {
	e.steps++
	if e.steps > e.cfg.MaxSteps {
		panic("sim: step budget exhausted (livelock?)\n" + e.dump())
	}
}

// pick returns the ready processor with the smallest clock (ties broken by
// ID), or nil if none is ready. It is the reference scheduler's O(n)
// selection; the fast path replaces it with the ready heap.
func (e *Engine) pick() *Proc {
	var best *Proc
	for _, p := range e.procs {
		if p.state == Ready && (best == nil || p.now < best.now) {
			best = p
		}
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

// Steps reports how many scheduling steps the engine has performed: on
// the fast path one for the first resume, one for every yield or finish
// and one per 1024 inline Elapse calls; under Reference one for every
// resume. The count is a pure function of the schedule.
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
