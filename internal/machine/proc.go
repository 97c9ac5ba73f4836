package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// HWTx is the architectural state of an in-flight hardware transaction:
// the speculative read/write line-sets (the SR/SW bits of the paper,
// hoisted out of the cache array so the unbounded HTM can share the
// implementation) and the speculative store buffer that stands in for
// speculatively-dirty cache lines.
type HWTx struct {
	Age      uint64
	Bounded  bool // true for BTM (L1-limited), false for the unbounded HTM
	ReadSet  map[uint64]struct{}
	WriteSet map[uint64]struct{}
	Spec     map[uint64]uint64 // speculative word values, by address

	pendingAbort AbortReason
	abortAddr    uint64
	abortHasAddr bool
}

// Footprint returns the number of distinct lines read or written.
func (t *HWTx) Footprint() int {
	n := len(t.WriteSet)
	for l := range t.ReadSet {
		if _, w := t.WriteSet[l]; !w {
			n++
		}
	}
	return n
}

// Proc is one simulated processor plus its private L1 and transactional
// state. All methods must be called from the processor's own workload
// coroutine, except where noted. Only the processor holding the engine's
// execution token runs, so every method that touches shared machine
// state executes at this processor's (cycle, id) slot of the
// deterministic schedule under both schedulers; methods documented as
// proc-local touch only this processor's state.
type Proc struct {
	m   *Machine
	sp  *sim.Proc
	l1  *cache.L1
	ufo bool // UFO faults enabled for the current thread

	hw    *HWTx // in-flight hardware transaction, or nil
	hwBuf *HWTx // pooled transaction state reused across BeginHW calls

	// Software-transaction identity, published by the STM layer so the
	// machine can classify STM-vs-HTM conflicts (Section 5.4's ">99%
	// STM-older" measurement).
	stmAge uint64
	inSTM  bool
	rng    *sim.Rand
}

// ID returns the processor number (immutable, proc-local).
func (p *Proc) ID() int { return p.sp.ID() }

// Machine returns the owning machine (immutable, proc-local). Shared
// fields reached through it (Mem, Count, Rand, NextAge) are touched at
// this processor's (cycle, id) schedule slot.
func (p *Proc) Machine() *Machine { return p.m }

// Now returns the processor's local clock (proc-local).
func (p *Proc) Now() uint64 { return p.sp.Now() }

// Elapse charges pure-compute cycles. It is the scheduling point: the
// deterministic (cycle, id) order is defined over the clock values
// Elapse publishes.
func (p *Proc) Elapse(c uint64) { p.sp.Elapse(c) }

// ElapseUntil advances the processor's local clock to at least cycle,
// yielding to the engine exactly like Elapse. It is the schedule-replay
// hook: the litmus executor pins every program operation to an absolute
// slot time, so one enumerated interleaving replays identically under
// both the reference and the run-ahead scheduler. A target at or before
// the current clock is a no-op — a re-executed (aborted) transaction
// body runs its remaining operations back to back.
func (p *Proc) ElapseUntil(cycle uint64) {
	if now := p.sp.Now(); cycle > now {
		p.sp.Elapse(cycle - now)
	}
}

// Block deschedules the processor until another wakes it; the engine
// orders the block at this processor's (cycle, id) schedule slot.
func (p *Proc) Block() { p.sp.Block() }

// Wake readies a blocked processor (callable from any running
// processor); the engine orders the wake deterministically at the
// waker's schedule slot.
func (p *Proc) Wake(q *Proc) { p.sp.Wake(q.sp) }

// SetNote attaches a diagnostic label shown in engine dumps (proc-local;
// never affects the schedule).
func (p *Proc) SetNote(format string, args ...any) { p.sp.SetNote(format, args...) }

// Rand returns a per-processor deterministic random stream, seeded from
// Params.Seed and the processor ID. It is proc-local, unlike the
// machine-wide Machine.Rand.
func (p *Proc) Rand() *sim.Rand {
	if p.rng == nil {
		p.rng = sim.NewRand(p.m.Seed*2654435761 + uint64(p.ID()) + 1)
	}
	return p.rng
}

// L1 exposes the occupancy model (for tests and statistics). The L1 is
// proc-local state; mid-run mutation happens only through this
// processor's own operations, at its (cycle, id) schedule slot.
func (p *Proc) L1() *cache.L1 { return p.l1 }

// --- UFO thread state (Table 2: enable_ufo / disable_ufo) ---

// SetUFOEnabled turns UFO faulting on or off for this thread. The flag
// is proc-local: only this processor's accesses consult it.
func (p *Proc) SetUFOEnabled(on bool) { p.ufo = on }

// UFOEnabled reports whether UFO faults are delivered to this thread
// (proc-local read).
func (p *Proc) UFOEnabled() bool { return p.ufo }

// SetSTM publishes that this processor is (or is no longer) executing a
// software transaction of the given age. Other processors read this
// state when classifying conflicts; the update lands at this
// processor's (cycle, id) schedule slot.
func (p *Proc) SetSTM(active bool, age uint64) {
	p.inSTM = active
	p.stmAge = age
}

// InSTM reports whether a software transaction is active on this
// processor. Reading one's own flag is proc-local; the cross-processor
// readers are the machine's conflict classifiers, which run on the
// processor holding the execution token.
func (p *Proc) InSTM() bool { return p.inSTM }

// --- Hardware transactions ---

// HW returns the in-flight hardware transaction, or nil (proc-local
// read of this processor's own transaction slot).
func (p *Proc) HW() *HWTx { return p.hw }

// BeginHW starts a hardware transaction with the given age. bounded
// selects BTM semantics (L1-capacity-limited) versus the idealized
// unbounded HTM. Nesting is the caller's concern (BTM flattens).
// Runs at this processor's (cycle, id) schedule slot.
func (p *Proc) BeginHW(age uint64, bounded bool) {
	if p.hw != nil {
		panic("machine: BeginHW with transaction already active")
	}
	// Transactions are frequent and short; reuse one HWTx (and its maps,
	// which keep their buckets across clears) per processor instead of
	// allocating fresh state on every begin.
	t := p.hwBuf
	if t == nil {
		t = &HWTx{
			ReadSet:  make(map[uint64]struct{}),
			WriteSet: make(map[uint64]struct{}),
			Spec:     make(map[uint64]uint64),
		}
		p.hwBuf = t
	}
	t.Age, t.Bounded = age, bounded
	t.pendingAbort, t.abortAddr, t.abortHasAddr = AbortNone, 0, false
	clear(t.ReadSet)
	clear(t.WriteSet)
	clear(t.Spec)
	p.hw = t
	p.record(TraceHWBegin, AbortNone, 0, age, FlagAge)
}

// CommitHW atomically publishes the transaction's speculative writes and
// ends it. If an abort was already pending the transaction is aborted
// instead and the outcome says so. The publish is atomic at this
// processor's (cycle, id) schedule slot.
func (p *Proc) CommitHW() Outcome {
	t := p.hw
	if t == nil {
		panic("machine: CommitHW with no transaction")
	}
	if t.pendingAbort != AbortNone {
		return p.consumeAbort()
	}
	for addr, val := range t.Spec {
		p.m.Mem.Write64(addr, val)
	}
	p.m.Count.HWCommits++
	p.m.Count.HWFootprint.Observe(uint64(t.Footprint()))
	p.record(TraceHWCommit, AbortNone, 0, t.Age, FlagAge)
	p.hw = nil
	return okOutcome
}

// AbortHW aborts the in-flight transaction for a self-inflicted reason
// (explicit abort, syscall, I/O, exception marker). Speculative state is
// discarded; the caller unwinds. Runs at this processor's (cycle, id)
// schedule slot.
func (p *Proc) AbortHW(reason AbortReason) {
	t := p.hw
	if t == nil {
		panic("machine: AbortHW with no transaction")
	}
	p.killHW(p, reason, 0, false)
	p.consumeAbort()
}

// AbortHWAttributed aborts the in-flight transaction like AbortHW, but
// attributes the conflict event to another processor and a
// conflicting line. Hybrid TMs use it when a software barrier detects a
// conflict on behalf of a software transaction running elsewhere (HyTM's
// otable check, PhTM's phase counter, SLE's held lock word): the abort is
// architecturally self-inflicted, but the contention belongs to the peer.
// aggressor -1 falls back to self-attribution. Runs at this processor's
// (cycle, id) schedule slot.
func (p *Proc) AbortHWAttributed(reason AbortReason, aggressor int, addr uint64) {
	if p.hw == nil {
		panic("machine: AbortHWAttributed with no transaction")
	}
	p.killHWFrom(aggressor, p, reason, addr, true)
	p.consumeAbort()
}

// RecordSWKill emits the conflict event for p's software transaction
// killing victim's software transaction over the line containing addr.
// The STM layers call this from their kill paths; the machine itself
// only sees SW conflicts indirectly. Events arrive in deterministic
// schedule order.
func (p *Proc) RecordSWKill(victim *Proc, reason AbortReason, addr uint64, hasAddr bool) {
	p.conflict(p.ID(), victim.ID(), reason, addr, hasAddr, true)
}

// RecordSWAbortBy emits the conflict event for p's own software
// transaction aborting because of aggressor (-1 when unknown, e.g. a TL2
// stripe whose last writer has long released it). Used by STMs whose
// victims detect conflicts themselves rather than being killed. Events
// arrive in deterministic schedule order.
func (p *Proc) RecordSWAbortBy(aggressor int, reason AbortReason, addr uint64, hasAddr bool) {
	p.conflict(aggressor, p.ID(), reason, addr, hasAddr, true)
}

// RecordSWCommit emits the sw-commit event for a committed software
// transaction at this processor's (cycle, id) schedule slot. It carries
// the age the STM published with SetSTM, if one is still active.
func (p *Proc) RecordSWCommit() {
	flags := TraceFlags(0)
	if p.inSTM {
		flags = FlagAge
	}
	p.record(TraceSWCommit, AbortNone, 0, p.stmAge, flags)
}

// RecordSWFootprint lets software TMs feed their committed transactions'
// footprints into the machine-wide histogram, which is shared state
// updated at this processor's (cycle, id) schedule slot.
func (p *Proc) RecordSWFootprint(lines int) {
	p.m.Count.SWFootprint.Observe(uint64(lines))
}

// conflict emits one conflict event stamped with p's clock: aggressor
// (-1 unknown) aborted victim's transaction.
func (p *Proc) conflict(aggressor, victim int, reason AbortReason, addr uint64, hasAddr, sw bool) {
	if !p.m.on(TraceConflict) {
		return
	}
	var flags TraceFlags
	if hasAddr {
		flags = FlagAddr
	}
	p.m.emit(TraceEvent{
		Cycle: p.Now(), Proc: victim, Peer: aggressor, Kind: TraceConflict,
		Reason: reason, SW: sw, Flags: flags, Addr: addr,
	})
}

// consumeAbort retires a pending abort: it records statistics, clears the
// transaction, and returns the HWAborted outcome.
func (p *Proc) consumeAbort() Outcome {
	t := p.hw
	reason, addr := t.pendingAbort, t.abortAddr
	p.m.Count.HWAbortsByReason[reason]++
	flags := FlagAge
	if t.abortHasAddr {
		flags |= FlagAddr
	}
	p.record(TraceHWAbort, reason, addr, t.Age, flags)
	p.hw = nil
	return Outcome{Kind: HWAborted, Reason: reason, Addr: addr}
}

// killHW flash-clears victim's transactional state and records the abort
// reason for delivery at the victim's next transactional operation. killer
// is the processor performing the conflicting action (may equal victim).
// hasAddr states whether addr names a real conflicting address — address
// 0 is a legal simulated address, so absence is tracked explicitly.
func (p *Proc) killHW(victim *Proc, reason AbortReason, addr uint64, hasAddr bool) {
	p.killHWFrom(p.ID(), victim, reason, addr, hasAddr)
}

// killHWFrom is killHW with an explicit aggressor processor ID for the
// conflict event. p is always the processor performing the kill (whose
// clock timestamps the event); aggressor may name another processor when a
// software barrier detects a conflict on that processor's behalf
// (AbortHWAttributed), or -1 for self-attribution.
func (p *Proc) killHWFrom(aggressor int, victim *Proc, reason AbortReason, addr uint64, hasAddr bool) {
	t := victim.hw
	if t == nil || t.pendingAbort != AbortNone {
		return
	}
	if aggressor < 0 {
		aggressor = victim.ID()
	}
	p.conflict(aggressor, victim.ID(), reason, addr, hasAddr, false)
	t.pendingAbort = reason
	t.abortAddr = addr
	t.abortHasAddr = hasAddr
	// Speculatively written lines are invalidated on abort (they were
	// never globally visible); the read set simply loses its SR bits.
	for l := range t.WriteSet {
		victim.l1.Invalidate(l)
		p.m.dir.Remove(l, victim.ID())
	}
	clear(t.ReadSet)
	clear(t.WriteSet)
	clear(t.Spec)
}

// timerInterrupt models the scheduling-timer quantum: an in-flight
// hardware transaction cannot survive an interrupt (Section 3.1).
func (p *Proc) timerInterrupt() {
	if p.hw != nil {
		p.killHW(p, AbortInterrupt, 0, false)
	}
}

// checkPending delivers a pending asynchronous abort, if any.
func (p *Proc) checkPending() (Outcome, bool) {
	if p.hw != nil && p.hw.pendingAbort != AbortNone {
		return p.consumeAbort(), true
	}
	return okOutcome, false
}

// --- The memory operation core ---

// access performs the full architectural sequence for one memory
// operation: UFO protection check, conflict detection and resolution
// against other processors' hardware transactions, and cache/coherence
// timing. tx marks the access as part of p's hardware transaction.
func (p *Proc) access(addr uint64, write, tx bool) Outcome {
	if tx {
		if out, aborted := p.checkPending(); aborted {
			return out
		}
		if p.hw == nil {
			panic("machine: transactional access with no transaction")
		}
	} else if p.hw != nil {
		// BTM has no non-transactional loads/stores (paper, footnote 9).
		panic("machine: non-transactional access inside a hardware transaction")
	}

	// 1. UFO protection check: the fault is raised before the access
	// completes, so a faulting access has no architectural effect.
	if p.ufo && p.m.Mem.Faults(addr, write) {
		p.m.Count.UFOFaults++
		p.record(TraceUFOFault, AbortNone, addr, 0, FlagAddr)
		p.sp.Elapse(p.m.L1HitCycles) // the tag check that detected the fault
		return Outcome{Kind: UFOFault, Addr: addr}
	}

	// 2. Conflict detection against other processors' HW transactions.
	line := mem.LineOf(addr)
	if out, resolved := p.resolveConflicts(line, write, tx); !resolved {
		return out
	}

	// 3. Track the transactional footprint before the timing charge: the
	// coherence acquisition and the SR/SW-bit update are one atomic
	// hardware action, and the charge below may yield to other processors
	// whose conflicting actions must observe the updated footprint.
	if tx {
		if write {
			p.hw.WriteSet[line] = struct{}{}
		} else {
			p.hw.ReadSet[line] = struct{}{}
		}
	}

	// 4. Cache and coherence timing. This can self-abort (set overflow),
	// race with a timer interrupt, or lose the line to a concurrent
	// conflictor, so pending aborts are delivered before data moves.
	p.charge(line, write)
	if tx {
		if out, aborted := p.checkPending(); aborted {
			return out
		}
		return okOutcome
	}
	// 5. Completion-time conflict re-check: the charge above yields, and a
	// hardware transaction may have touched this line while the miss was in
	// flight — its footprint was empty at the issue-time check, but this
	// access's data lands now. In hardware the store's invalidation (or the
	// load's downgrade) snoops the SR/SW bits when the coherence transaction
	// completes, so such a transaction is killed; without the re-check a
	// hardware transaction could read a line mid-way through a
	// non-transactional store's miss and commit having seen both the old
	// and the new value. Victims killed at issue already carry a pending
	// abort and are skipped.
	p.resolveConflicts(line, write, false)
	if p.ufo && p.m.Mem.Faults(addr, write) {
		// 6. Protection re-check, same window: a software transaction may
		// have installed UFO protection on (and eagerly written) this line
		// during the miss. In hardware the permission check rides the
		// coherence response, so the access faults; without this re-check a
		// non-transactional reader could return the transaction's
		// uncommitted value — a strong-atomicity hole the litmus suite
		// catches. The timing was charged but no data moves; the handler's
		// retry will hit in L1.
		p.m.Count.UFOFaults++
		p.record(TraceUFOFault, AbortNone, addr, 0, FlagAddr)
		return Outcome{Kind: UFOFault, Addr: addr}
	}
	return okOutcome
}

// resolveConflicts applies the machine's contention policy to every
// hardware transaction whose footprint conflicts with this access.
// resolved=false means the access must not proceed (NACK or own abort).
func (p *Proc) resolveConflicts(line uint64, write, tx bool) (Outcome, bool) {
	var victims []*Proc
	for _, q := range p.m.procs {
		if q == p || q.hw == nil || q.hw.pendingAbort != AbortNone {
			continue
		}
		_, inW := q.hw.WriteSet[line]
		_, inR := q.hw.ReadSet[line]
		if inW || (write && inR) {
			victims = append(victims, q)
		}
	}
	if len(victims) == 0 {
		return okOutcome, true
	}
	if !tx {
		// A non-transactional (or STM) access always serializes against
		// hardware transactions by aborting them: HTMs are strongly atomic
		// through coherence. STM-vs-HTM conflicts are also classified for
		// the Section 5.4 measurement.
		for _, q := range victims {
			if p.inSTM {
				if p.stmAge < q.hw.Age {
					p.m.Count.ConflictSTMOlder++
				} else {
					p.m.Count.ConflictHTMOlder++
				}
			}
			p.killHW(q, AbortNonTConflict, mem.LineAddr(line), true)
		}
		return okOutcome, true
	}
	// HW-vs-HW: age-ordered resolution (or requester-wins for Figure 8).
	if p.m.HWPolicy == AgeOrdered {
		for _, q := range victims {
			if q.hw.Age < p.hw.Age {
				p.m.Count.Nacks++
				p.record(TraceNack, AbortNone, mem.LineAddr(line), p.hw.Age, FlagAddr|FlagAge)
				return Outcome{Kind: Nacked}, false
			}
		}
	}
	for _, q := range victims {
		p.killHW(q, AbortConflict, mem.LineAddr(line), true)
	}
	return okOutcome, true
}

// charge models the latency of the reference and maintains L1 occupancy
// and the directory. A write invalidates all other cached copies.
func (p *Proc) charge(line uint64, write bool) {
	hit, victim, evicted := p.l1.Touch(line)
	cost := p.m.L1HitCycles
	if !hit {
		if p.m.warm[line] {
			if len(p.m.dir.Others(line, p.ID())) > 0 {
				cost += p.m.TransferCycles
			} else {
				cost += p.m.L2HitCycles
			}
		} else {
			p.m.warm[line] = true
			cost += p.m.MemCycles
		}
		p.m.dir.Add(line, p.ID())
		if evicted {
			p.m.dir.Remove(victim, p.ID())
			if p.hw != nil && p.hw.Bounded {
				_, inR := p.hw.ReadSet[victim]
				_, inW := p.hw.WriteSet[victim]
				if inR || inW {
					// Evicting a transactional line overflows BTM.
					p.killHW(p, AbortOverflow, mem.LineAddr(victim), true)
				}
			}
		}
	}
	if write {
		others := p.m.dir.Others(line, p.ID())
		if len(others) > 0 {
			cost += p.m.TransferCycles // exclusive-permission upgrade
			for _, q := range others {
				p.m.procs[q].l1.Invalidate(line)
				p.m.dir.Remove(line, q)
			}
		}
	}
	p.sp.Elapse(cost)
}

// --- Data-path operations ---

// TxRead performs a transactional load. Conflict detection, footprint
// update, and data read are atomic at this processor's (cycle, id)
// schedule slot.
func (p *Proc) TxRead(addr uint64) (uint64, Outcome) {
	out := p.access(addr, false, true)
	if out.Kind != OK {
		return 0, out
	}
	if v, ok := p.hw.Spec[addr]; ok {
		return v, okOutcome
	}
	return p.m.Mem.Read64(addr), okOutcome
}

// TxWrite performs a transactional store into the speculative buffer.
// Atomic at this processor's (cycle, id) schedule slot.
func (p *Proc) TxWrite(addr, val uint64) Outcome {
	out := p.access(addr, true, true)
	if out.Kind != OK {
		return out
	}
	p.hw.Spec[addr] = val
	return okOutcome
}

// NTRead performs a non-transactional load, atomic at this processor's
// (cycle, id) schedule slot.
func (p *Proc) NTRead(addr uint64) (uint64, Outcome) {
	out := p.access(addr, false, false)
	if out.Kind != OK {
		return 0, out
	}
	return p.m.Mem.Read64(addr), okOutcome
}

// NTWrite performs a non-transactional store, atomic at this processor's
// (cycle, id) schedule slot.
func (p *Proc) NTWrite(addr, val uint64) Outcome {
	out := p.access(addr, true, false)
	if out.Kind != OK {
		return out
	}
	p.m.Mem.Write64(addr, val)
	return okOutcome
}

// --- UFO bit operations (Table 2) ---

// SetUFO installs protection bits on the line containing addr
// (set_ufo_bits). Because the bits must stay coherent, the instruction
// acquires exclusive permission, invalidating every other cached copy —
// and thereby killing any hardware transaction whose footprint includes
// the line (the BTM/UFO interaction of Section 4.3). Under the
// TrueConflictUFOKills limit study only genuinely conflicting
// transactions are killed. Atomic at this processor's (cycle, id)
// schedule slot.
func (p *Proc) SetUFO(addr uint64, bits mem.UFOBits) {
	p.ufoUpdate(addr, func() { p.m.Mem.SetUFO(addr, bits) }, bits)
}

// AddUFO ORs protection bits into the line containing addr
// (add_ufo_bits). Atomic at this processor's (cycle, id) schedule slot,
// like SetUFO.
func (p *Proc) AddUFO(addr uint64, bits mem.UFOBits) {
	p.ufoUpdate(addr, func() { p.m.Mem.AddUFO(addr, bits) }, bits)
}

func (p *Proc) ufoUpdate(addr uint64, apply func(), bits mem.UFOBits) {
	line := mem.LineOf(addr)
	old := p.m.Mem.UFO(addr)
	cost := p.m.UFOOpCycles

	// The paper's two proposed mitigations for false UFO/BTM conflicts:
	// a pure downgrade under lazy clearing, or a fault-on-write-only
	// install under owner-state setting, need not blow every other copy
	// away. (Section 4.3: "setting UFO bits in the owner state" / "lazily
	// clearing UFO bits for read-mostly data".)
	downgrade := bits&^old == 0 // no new protection added
	fowOnly := bits&^old == mem.UFOFaultOnWrite
	if p.m.LazyUFOClear && downgrade {
		apply()
		p.sp.Elapse(cost)
		return
	}
	sharedInstall := p.m.OwnerStateUFO && fowOnly

	// Exclusive permission: invalidate all other copies (unless the
	// owner-state optimization keeps read-sharers valid).
	if !sharedInstall {
		others := p.m.dir.Others(line, p.ID())
		if len(others) > 0 {
			cost += p.m.TransferCycles
		}
		for _, qid := range others {
			q := p.m.procs[qid]
			q.l1.Invalidate(line)
			p.m.dir.Remove(line, qid)
		}
	}
	// Kill hardware transactions holding the line.
	for _, q := range p.m.procs {
		if q == p || q.hw == nil || q.hw.pendingAbort != AbortNone {
			continue
		}
		_, inR := q.hw.ReadSet[line]
		_, inW := q.hw.WriteSet[line]
		if !inR && !inW {
			continue
		}
		trueConflict := inW || bits&mem.UFOFaultOnRead != 0
		if trueConflict {
			p.m.Count.UFOKillsTrue++
		} else {
			p.m.Count.UFOKillsFalse++
			if p.m.TrueConflictUFOKills {
				continue // limit study: spare false conflicts
			}
			if sharedInstall {
				continue // owner-state install: readers survive
			}
		}
		if p.inSTM {
			if p.stmAge < q.hw.Age {
				p.m.Count.ConflictSTMOlder++
			} else {
				p.m.Count.ConflictHTMOlder++
			}
		}
		p.killHW(q, AbortUFOKill, mem.LineAddr(line), true)
	}
	apply()
	p.record(TraceUFOSet, AbortNone, addr, 0, FlagAddr)
	p.sp.Elapse(cost)
}

// ReadUFO returns the line's protection bits (read_ufo_bits) at this
// processor's (cycle, id) schedule slot.
func (p *Proc) ReadUFO(addr uint64) mem.UFOBits {
	p.sp.Elapse(p.m.UFOOpCycles)
	return p.m.Mem.UFO(addr)
}

// String implements fmt.Stringer for diagnostics.
func (p *Proc) String() string {
	return fmt.Sprintf("proc%d@%d", p.ID(), p.Now())
}
