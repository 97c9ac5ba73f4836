package machine

// Per-transaction lifecycle hooks. TM systems call these from their
// Atomic loops; each emits one event (tx-begin, tx-attempt, tx-abort,
// ...) to the subscribers of its kind — the trace ring and sinks for
// tx-begin/tx-commit, internal/txstats for all of them. Every hook runs
// on the processor holding the execution token, so events land in the
// deterministic schedule order under every scheduler; with nothing
// subscribed each hook costs one length check.
//
// The hooks never advance the simulated clock and never draw from any
// RNG: subscribing observes a run without perturbing it, so instrumented
// and uninstrumented runs are cycle-identical.

// recordPath emits a lifecycle event that carries the attempt's path.
func (p *Proc) recordPath(kind TraceKind, path TxPath, reason AbortReason) {
	if !p.m.on(kind) {
		return
	}
	p.m.emit(TraceEvent{
		Cycle: p.Now(), Proc: p.ID(), Kind: kind,
		Reason: reason, Path: path, Flags: FlagPath,
	})
}

// TxLifeArrival tags the next logical transaction on this proc with its
// open-loop request arrival cycle (the tx-arrival event's Cycle).
// Workloads call it immediately before the Atomic call that services the
// request. Like the other TxLife hooks it runs at this processor's
// (cycle, id) schedule slot and never advances the clock or draws
// randomness.
func (p *Proc) TxLifeArrival(cycle uint64) {
	if !p.m.on(TraceTxArrival) {
		return
	}
	p.m.emit(TraceEvent{Cycle: cycle, Proc: p.ID(), Kind: TraceTxArrival})
}

// TxLifeBegin marks the start of one logical transaction (an Atomic
// call) with the tx-begin event at this processor's (cycle, id) schedule
// slot.
func (p *Proc) TxLifeBegin() { p.record(TraceTxBegin, AbortNone, 0, 0, 0) }

// TxLifeAttempt marks the start of one attempt on the given path at this
// processor's (cycle, id) schedule slot.
func (p *Proc) TxLifeAttempt(path TxPath) { p.recordPath(TraceTxAttempt, path, AbortNone) }

// TxLifeAbort marks the failure of the current attempt for the given
// reason at this processor's (cycle, id) schedule slot.
func (p *Proc) TxLifeAbort(path TxPath, reason AbortReason) {
	p.recordPath(TraceTxAbort, path, reason)
}

// TxLifeRetryWait marks a Retry suspension (§6): cycles from the current
// attempt's start until the next TxLifeAttempt count as transactional
// waiting rather than wasted work. Runs at this processor's (cycle, id)
// schedule slot.
func (p *Proc) TxLifeRetryWait() { p.record(TraceTxRetryWait, AbortNone, 0, 0, 0) }

// TxLifeBackoff reports cycles just spent in a contention-management
// delay (cm calls it after Elapse), at this processor's (cycle, id)
// schedule slot.
func (p *Proc) TxLifeBackoff(cycles uint64) {
	if !p.m.on(TraceTxBackoff) {
		return
	}
	p.m.emit(TraceEvent{Cycle: p.Now(), Proc: p.ID(), Kind: TraceTxBackoff, Backoff: cycles})
}

// TxLifeCommit marks the successful end of the transaction on the given
// path with the tx-commit event at this processor's (cycle, id) schedule
// slot.
func (p *Proc) TxLifeCommit(path TxPath) { p.recordPath(TraceTxCommit, path, AbortNone) }
