package machine

import (
	"fmt"
	"io"
)

// TraceKind classifies the machine's events. Every fact the machine and
// the TM systems running on it report — transaction lifecycle, UFO
// activity, who aborted whom — is one TraceEvent of one kind, delivered
// to the subscribers of that kind (Machine.Subscribe).
type TraceKind uint8

// Event kinds. hw-begin through tx-commit (TraceKinds) are the trace
// kinds: the ring and the export sinks record them. The rest feed the
// attribution and lifecycle recorders (internal/contention,
// internal/txstats).
const (
	TraceHWBegin TraceKind = iota
	TraceHWCommit
	TraceHWAbort
	TraceSWBegin
	TraceSWCommit
	TraceSWAbort
	TraceUFOSet
	TraceUFOFault
	TraceNack
	TraceBlock
	TraceWake
	// TraceTxBegin and TraceTxCommit bracket one logical transaction (an
	// Atomic call spanning every attempt); the Chrome sink turns the pair
	// into a per-transaction span. TraceTxCommit carries the committing
	// path in Path with FlagPath set.
	TraceTxBegin
	TraceTxCommit
	// TraceConflict: Peer (the aggressor, -1 if unknown) aborted Proc's
	// transaction; SW marks a software victim. Self-inflicted aborts
	// (explicit, syscall, overflow, interrupt) have Peer == Proc.
	TraceConflict
	// TraceTxArrival: the next logical transaction on Proc services an
	// open-loop request that arrived at Cycle, which may precede the
	// proc's clock when it is backlogged.
	TraceTxArrival
	// TraceTxAttempt starts one attempt on Path.
	TraceTxAttempt
	// TraceTxAbort ends the current attempt on Path for Reason.
	TraceTxAbort
	// TraceTxRetryWait suspends the current attempt in Retry (§6).
	TraceTxRetryWait
	// TraceTxBackoff reports Backoff cycles just spent in a
	// contention-management delay.
	TraceTxBackoff

	numTraceKinds
)

var traceKindNames = [numTraceKinds]string{
	"hw-begin", "hw-commit", "hw-abort", "sw-begin", "sw-commit",
	"sw-abort", "ufo-set", "ufo-fault", "nack", "block", "wake",
	"tx-begin", "tx-commit", "conflict", "tx-arrival", "tx-attempt",
	"tx-abort", "tx-retry-wait", "tx-backoff",
}

// TraceKinds lists the trace kinds, hw-begin through tx-commit: what
// EnableTrace's ring records and what a live export sink subscribes to.
var TraceKinds = []TraceKind{
	TraceHWBegin, TraceHWCommit, TraceHWAbort, TraceSWBegin, TraceSWCommit,
	TraceSWAbort, TraceUFOSet, TraceUFOFault, TraceNack, TraceBlock,
	TraceWake, TraceTxBegin, TraceTxCommit,
}

// String returns the kind name used in text exports.
func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) {
		return traceKindNames[k]
	}
	return fmt.Sprintf("TraceKind(%d)", uint8(k))
}

// TraceFlags marks which optional TraceEvent fields carry real values.
// Address 0 and age 0 are legitimate values (the first line of simulated
// memory; pre-age bookkeeping events), so "present" must be recorded
// explicitly rather than inferred from zero.
type TraceFlags uint8

// The flag bits.
const (
	// FlagAddr: the Addr field is meaningful.
	FlagAddr TraceFlags = 1 << iota
	// FlagAge: the Age field is meaningful.
	FlagAge
	// FlagPath: the Path field is meaningful (tx-attempt, tx-abort,
	// tx-commit).
	FlagPath
)

// TraceEvent is one machine event.
type TraceEvent struct {
	Cycle   uint64
	Proc    int // the processor the event happened to (a conflict's victim)
	Peer    int // conflict: the aggressor, -1 if unknown
	Kind    TraceKind
	Reason  AbortReason // aborts and conflicts
	Path    TxPath      // tx-attempt / tx-abort / tx-commit (FlagPath)
	SW      bool        // conflict: the victim was a software transaction
	Flags   TraceFlags  // which of Addr/Age/Path are set
	Addr    uint64      // ufo-set / ufo-fault / conflict addresses
	Age     uint64      // transaction age, where applicable
	Backoff uint64      // tx-backoff: cycles spent in the delay
}

// HasAddr reports whether Addr carries a real address (address 0 counts).
func (e TraceEvent) HasAddr() bool { return e.Flags&FlagAddr != 0 }

// HasAge reports whether Age carries a real transaction age.
func (e TraceEvent) HasAge() bool { return e.Flags&FlagAge != 0 }

// HasPath reports whether Path carries the attempt's TxPath.
func (e TraceEvent) HasPath() bool { return e.Flags&FlagPath != 0 }

// String formats the event as one line of the text trace.
func (e TraceEvent) String() string {
	s := fmt.Sprintf("%10d  p%-2d %-9s", e.Cycle, e.Proc, e.Kind)
	switch e.Kind {
	case TraceHWAbort, TraceSWAbort:
		s += fmt.Sprintf(" reason=%s", e.Reason)
	}
	if e.HasAddr() {
		s += fmt.Sprintf(" addr=%#x", e.Addr)
	}
	if e.HasAge() {
		s += fmt.Sprintf(" age=%d", e.Age)
	}
	if e.HasPath() {
		s += fmt.Sprintf(" path=%s", e.Path)
	}
	return s
}

// Subscriber consumes machine events. Implementations must be cheap;
// they need no locking, because the machine delivers every event from
// the processor holding the execution token (Machine.Subscribe).
type Subscriber interface {
	Event(e TraceEvent)
}

// Subscribe delivers every subsequent event of the given kinds to s,
// after the subscribers already attached for that kind. Subscribe before
// Run; the machine never closes a subscriber. Events are delivered by
// the processor holding the execution token, in the deterministic
// (cycle, id) schedule order, so every subscriber sees the same stream
// under every scheduler. A hook point with no subscriber for its kind
// costs one length check.
func (m *Machine) Subscribe(s Subscriber, kinds ...TraceKind) {
	for _, k := range kinds {
		m.subs[k] = append(m.subs[k], s)
	}
}

// on reports whether any subscriber listens for kind.
func (m *Machine) on(kind TraceKind) bool { return len(m.subs[kind]) != 0 }

// emit delivers e to the subscribers of its kind, in attachment order.
func (m *Machine) emit(e TraceEvent) {
	for _, s := range m.subs[e.Kind] {
		s.Event(e)
	}
}

// Trace is a bounded in-memory event log. Enable it with
// Machine.EnableTrace; when full it keeps the most recent events (ring
// buffer), which is what post-mortem debugging wants.
type Trace struct {
	limit  int
	events []TraceEvent
	start  int // ring start when full
	total  uint64
}

// EnableTrace subscribes a new ring of up to limit events (most recent
// kept) to TraceKinds and returns it. Events are appended by the
// processor holding the execution token, so the recorded sequence is
// deterministic and identical under every scheduler. Call EnableTrace
// itself before Run, and read the ring between runs.
func (m *Machine) EnableTrace(limit int) *Trace {
	if limit <= 0 {
		limit = 4096
	}
	t := &Trace{limit: limit}
	m.Subscribe(t, TraceKinds...)
	return t
}

// Event records one event, evicting the oldest when full.
func (t *Trace) Event(e TraceEvent) {
	t.total++
	if len(t.events) < t.limit {
		t.events = append(t.events, e)
		return
	}
	t.events[t.start] = e
	t.start = (t.start + 1) % t.limit
}

// Events returns the recorded events, oldest first.
func (t *Trace) Events() []TraceEvent {
	if t.start == 0 {
		return append([]TraceEvent(nil), t.events...)
	}
	out := make([]TraceEvent, 0, len(t.events))
	out = append(out, t.events[t.start:]...)
	out = append(out, t.events[:t.start]...)
	return out
}

// Total reports how many events were recorded (including evicted ones).
func (t *Trace) Total() uint64 { return t.total }

// Dump writes the recorded events to w.
func (t *Trace) Dump(w io.Writer) {
	if t.total > uint64(len(t.events)) {
		fmt.Fprintf(w, "(%d earlier events evicted)\n", t.total-uint64(len(t.events)))
	}
	for _, e := range t.Events() {
		fmt.Fprintln(w, e)
	}
}

// record emits a lifecycle event at p's clock (a no-op with no
// subscriber for kind). flags states which of addr/age are meaningful.
func (p *Proc) record(kind TraceKind, reason AbortReason, addr, age uint64, flags TraceFlags) {
	if !p.m.on(kind) {
		return
	}
	p.m.emit(TraceEvent{
		Cycle: p.Now(), Proc: p.ID(), Kind: kind,
		Reason: reason, Addr: addr, Age: age, Flags: flags,
	})
}

// RecordSW lets software TMs log their transaction lifecycle into the
// event stream. Events land in deterministic schedule order because
// only the processor holding the execution token records.
func (p *Proc) RecordSW(kind TraceKind, reason AbortReason, age uint64) {
	p.record(kind, reason, 0, age, FlagAge)
}
