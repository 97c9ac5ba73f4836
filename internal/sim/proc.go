package sim

import "fmt"

// Proc is one simulated processor. All methods must be called from the
// workload coroutine that the engine started for this processor (except
// Wake, which is called by whichever processor is currently running).
// Exactly one processor holds the execution token at any instant, so that
// discipline alone makes every method race-free and serializes every
// action in (cycle, id) schedule order.
type Proc struct {
	id    int
	eng   *Engine
	now   uint64
	state State
	note  string // diagnostic label shown in deadlock/livelock dumps

	heapIdx int // position in the engine's ready heap, -1 when absent

	// The workload coroutine: the engine loop calls resume to run this
	// processor, and the workload hands the token back by calling yield.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool

	quantum      uint64
	nextQuantum  uint64
	interruptFns []func()
	fastSkips    uint32
}

// ID returns the processor number. It is immutable, so the read is
// proc-local.
func (p *Proc) ID() int { return p.id }

// Now returns the processor's local clock in cycles. The clock is
// proc-local: only this processor's coroutine advances it mid-run.
func (p *Proc) Now() uint64 { return p.now }

// SetNote attaches a diagnostic label that appears in engine state
// dumps. The note is proc-local; it never influences the schedule.
func (p *Proc) SetNote(format string, args ...any) {
	p.note = fmt.Sprintf(format, args...)
}

// OnInterrupt registers fn to run (on the workload coroutine, during
// Elapse) every time this processor's clock crosses a scheduling-quantum
// boundary. The TM layers use this to model timer-interrupt aborts.
func (p *Proc) OnInterrupt(fn func()) {
	p.interruptFns = append(p.interruptFns, fn)
}

// Elapse advances the local clock by cycles and yields to the engine so a
// processor with a smaller clock can run. It fires timer-interrupt hooks
// for every quantum boundary crossed. Elapse is the only scheduling
// point: the engine's deterministic (clock, id) order is defined over
// the steps Elapse creates, identically under both schedulers.
func (p *Proc) Elapse(cycles uint64) {
	p.now += cycles
	if p.quantum > 0 {
		if p.nextQuantum == 0 {
			p.nextQuantum = p.quantum
		}
		for p.now >= p.nextQuantum {
			p.nextQuantum += p.quantum
			for _, fn := range p.interruptFns {
				fn()
			}
		}
	}
	// The reference scheduler yields on every Elapse. On the run-ahead
	// fast path, while this processor stays strictly before the horizon in
	// (clock, id) order it is still the engine's unique next pick, so it
	// keeps executing inline without leaving its coroutine. (The horizon
	// can only have moved earlier through this processor's own actions —
	// Wake, interrupt hooks — all of which happened above or before its
	// last yield, so the comparison is always current.)
	e := p.eng
	if h := e.horizon(); e.cfg.Reference || h != nil && schedBefore(h, p) {
		p.park()
		return
	}
	// Coarse inline step accounting keeps the livelock watchdog counting
	// while a lone runnable processor spins below the horizon.
	p.fastSkips++
	if p.fastSkips&1023 == 0 {
		e.step()
	}
}

// Block deschedules the processor until another processor calls Wake. The
// caller resumes inside Block once woken; no cycles elapse while blocked
// (the waker's Wake advances the sleeper's clock to the wake time).
func (p *Proc) Block() {
	p.state = Blocked
	p.park()
}

// Wake makes a blocked processor runnable again, advancing its clock to
// the waker's current time (it cannot resume in the past). Waking a
// processor that is not blocked is a no-op, so wakeups compose benignly
// with the sleeper deciding to block. Wake mutates the target's state
// while the waker holds the execution token, so the wake is deterministic
// in (clock, id) step order. On the fast path the woken processor enters
// the ready heap, which lowers the horizon so the waker yields at its
// next Elapse if the sleeper now precedes it.
func (p *Proc) Wake(target *Proc) {
	if target.state != Blocked {
		return
	}
	target.state = Ready
	if target.now < p.now {
		target.now = p.now
	}
	if !p.eng.cfg.Reference {
		p.eng.heapPush(target)
	}
}

// stopSignal is the panic value park raises in a coroutine the engine has
// released; the coroutine wrapper recovers it, so the workload code after
// the scheduling point never runs.
type stopSignal struct{}

// park hands the execution token back to the engine loop and returns when
// the loop resumes this processor.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(stopSignal{})
	}
}

// coroutine wraps body as this processor's coroutine, for iter.Pull.
func (p *Proc) coroutine(body func(*Proc)) func(func(struct{}) bool) {
	return func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopSignal); !ok {
					panic(r)
				}
			}
		}()
		p.yield = yield
		body(p)
	}
}
