package machine

// Per-transaction lifecycle hooks. TM systems call these from their
// Atomic loops to feed the attached TxRecorder (SetTxRecorder) and the
// per-transaction trace spans (TraceTxBegin / TraceTxCommit). Every hook
// runs on the processor holding the execution token, so recorder calls
// and trace events land in the deterministic schedule order under every
// scheduler; with no recorder attached and tracing off each hook costs
// one or two nil checks.
//
// The hooks never advance the simulated clock and never draw from any
// RNG: attaching a recorder observes a run without perturbing it, so
// instrumented and uninstrumented runs are cycle-identical.

// txTracing reports whether per-transaction trace events have anywhere
// to go. It reads attachments fixed before Run.
func (p *Proc) txTracing() bool {
	return p.m.trace != nil || len(p.m.sinks) != 0
}

// TxArrivalRecorder is an optional extension of TxRecorder for open-loop
// workloads: a recorder that also implements it receives the request
// arrival timestamp that precedes the next TxBegin on the proc, letting
// it account true response time (queueing + service) rather than just
// service latency. Recorders that don't implement it simply never see
// arrivals. Like every TxRecorder call, TxArrival fires on the
// processor holding the execution token, so implementations need no
// locking.
type TxArrivalRecorder interface {
	// TxArrival reports that the request about to run on proc arrived
	// (was generated by the open-loop client) at the given cycle, which
	// may be well before the proc's current clock when it is backlogged.
	TxArrival(proc int, cycle uint64)
}

// TxLifeArrival tags the next logical transaction on this proc with its
// open-loop request arrival cycle. Workloads call it immediately before
// the Atomic call that services the request. Like the other TxLife
// hooks it runs at this processor's (cycle, id) schedule slot, never
// advances the clock or draws randomness, and costs one type assertion
// when the attached recorder does not implement TxArrivalRecorder.
func (p *Proc) TxLifeArrival(cycle uint64) {
	ar, ok := p.m.txrec.(TxArrivalRecorder)
	if !ok {
		return
	}
	ar.TxArrival(p.ID(), cycle)
}

// TxLifeBegin marks the start of one logical transaction (an Atomic
// call) for lifecycle accounting and emits the tx-begin trace event at
// this processor's (cycle, id) schedule slot. Near-zero cost when no
// recorder or trace is attached.
func (p *Proc) TxLifeBegin() {
	rec, tr := p.m.txrec != nil, p.txTracing()
	if !rec && !tr {
		return
	}
	if rec {
		p.m.txrec.TxBegin(p.ID(), p.Now())
	}
	if tr {
		p.record(TraceTxBegin, AbortNone, 0, 0, 0)
	}
}

// TxLifeAttempt marks the start of one attempt on the given path at this
// processor's (cycle, id) schedule slot. One nil check when no recorder
// is attached.
func (p *Proc) TxLifeAttempt(path TxPath) {
	if p.m.txrec == nil {
		return
	}
	p.m.txrec.TxAttempt(p.ID(), path, p.Now())
}

// TxLifeAbort marks the failure of the current attempt for the given
// reason at this processor's (cycle, id) schedule slot. One nil check
// when no recorder is attached.
func (p *Proc) TxLifeAbort(path TxPath, reason AbortReason) {
	if p.m.txrec == nil {
		return
	}
	p.m.txrec.TxAbort(p.ID(), path, reason, p.Now())
}

// TxLifeRetryWait marks a Retry suspension (§6): cycles from the current
// attempt's start until the next TxLifeAttempt count as transactional
// waiting rather than wasted work. Runs at this processor's (cycle, id)
// schedule slot; one nil check when no recorder is attached.
func (p *Proc) TxLifeRetryWait() {
	if p.m.txrec == nil {
		return
	}
	p.m.txrec.TxRetryWait(p.ID(), p.Now())
}

// TxLifeBackoff reports cycles just spent in a contention-management
// delay (cm calls it after Elapse), at this processor's (cycle, id)
// schedule slot. One nil check when no recorder is attached.
func (p *Proc) TxLifeBackoff(cycles uint64) {
	if p.m.txrec == nil {
		return
	}
	p.m.txrec.TxBackoff(p.ID(), cycles)
}

// TxLifeCommit marks the successful end of the transaction on the given
// path and emits the tx-commit trace event (the path rides in the Age
// field, FlagPath) at this processor's (cycle, id) schedule slot.
// Near-zero cost when no recorder or trace is attached.
func (p *Proc) TxLifeCommit(path TxPath) {
	rec, tr := p.m.txrec != nil, p.txTracing()
	if !rec && !tr {
		return
	}
	if rec {
		p.m.txrec.TxCommit(p.ID(), path, p.Now())
	}
	if tr {
		p.record(TraceTxCommit, AbortNone, 0, uint64(path), FlagPath)
	}
}
