// Package txstats implements per-transaction lifecycle accounting for
// the simulated machine: a recorder of begin/attempt/abort/commit events
// — fed by every TM system's Atomic loop through the Proc.TxLife* hooks
// — aggregated into a deterministic profile of transaction latency
// (commit-to-commit wall cycles, wide power-of-two histogram),
// retries-to-commit, and a wasted-work breakdown that splits every
// committed transaction's cycles into useful work, wasted (aborted)
// attempts, contention-management backoff, Retry waiting, and residual
// overhead.
//
// This is the measurement layer behind the paper's §5 discussion of
// where hybrid-TM time goes: Figure 5 reports throughput, but explaining
// *why* a configuration wins needs the latency distribution and the
// cycles destroyed by each abort cause on each execution path (HTM, UFO,
// software, serialized fallback). The wasted-work attribution is
// cross-linked to the conflict edges internal/contention records: the
// recorder remembers each victim's most recent aggressor and charges the
// aborted attempt's cycles to that processor.
//
// Recorder is a machine.Subscriber for the lifecycle and conflict events
// (attach with m.Subscribe(r, txstats.Kinds...)). Aggregation is
// deterministic: the engine runs the hooks in (cycle, id) step order,
// and Report freezes every accumulator into declaration-ordered or
// sorted slices, so equal runs produce byte-identical reports.
package txstats

import (
	"repro/internal/machine"
	"repro/internal/obs"
)

// txState tracks one processor's in-flight transaction.
type txState struct {
	active       bool
	hasArrival   bool   // open-loop request: arrival is valid
	arrival      uint64 // request arrival cycle (TxLifeArrival)
	begin        uint64 // cycle of TxBegin
	attempts     uint64 // attempts so far (including the current one)
	path         machine.TxPath
	attemptStart uint64 // cycle the current attempt (or Retry wait) started
	waiting      bool   // suspended in Retry: attemptStart..next attempt is wait time
	wasted       uint64 // cycles in aborted attempts so far
	backoff      uint64 // cycles in cm backoff so far
	retryWait    uint64 // cycles suspended in Retry so far
	aggressor    int    // most recent conflict aggressor, -1 if none
}

// Recorder is the accumulating side of the lifecycle subsystem: one per
// machine run, subscribed to Kinds. Like obs.Registry it is not safe for
// concurrent use — the simulation engine serializes
// processors, and parallel sweeps give every cell its own Recorder.
type Recorder struct {
	procs int
	tx    []txState

	begun     uint64
	committed uint64

	commitsByPath  [machine.NumTxPaths]uint64
	attemptsByPath [machine.NumTxPaths]uint64
	aborts         [machine.NumTxPaths][machine.NumAbortReasons]uint64
	wastedBy       [machine.NumTxPaths][machine.NumAbortReasons]uint64

	usefulCycles    uint64
	wastedCycles    uint64
	backoffCycles   uint64
	retryWaitCycles uint64
	overheadCycles  uint64
	retryWaits      uint64

	aggressorWasted []uint64 // per aggressor proc: cycles their conflicts destroyed
	unknownWasted   uint64   // wasted cycles with no recorded aggressor

	latency  *obs.Histogram // per committed tx: commit cycle - begin cycle
	attempts obs.Histogram  // per committed tx: attempts to commit

	// Open-loop request accounting (fed by Proc.TxLifeArrival; zero for
	// closed-loop workloads, which never tag arrivals).
	pendingArrival []uint64 // per proc: arrival cycle awaiting the next TxBegin
	pendingValid   []bool
	requests       uint64
	response       *obs.Histogram // per request: commit cycle - arrival cycle
	queueWait      *obs.Histogram // per request: begin cycle - arrival cycle
}

// Kinds lists the machine events a Recorder consumes.
var Kinds = []machine.TraceKind{
	machine.TraceTxArrival, machine.TraceTxBegin, machine.TraceTxAttempt,
	machine.TraceTxAbort, machine.TraceTxRetryWait, machine.TraceTxBackoff,
	machine.TraceTxCommit, machine.TraceConflict,
}

// New returns an empty recorder for a machine with the given processor
// count.
func New(procs int) *Recorder {
	if procs < 1 {
		procs = 1
	}
	r := &Recorder{
		procs:           procs,
		tx:              make([]txState, procs),
		aggressorWasted: make([]uint64, procs),
		latency:         obs.NewWideHistogram(),
		pendingArrival:  make([]uint64, procs),
		pendingValid:    make([]bool, procs),
		response:        obs.NewWideHistogram(),
		queueWait:       obs.NewWideHistogram(),
	}
	for i := range r.tx {
		r.tx[i].aggressor = -1
	}
	return r
}

// Event implements machine.Subscriber. A conflict event remembers the
// victim's aggressor, so the victim's next aborted attempt charges its
// wasted cycles to that processor.
func (r *Recorder) Event(e machine.TraceEvent) {
	proc := e.Proc
	if proc < 0 || proc >= r.procs {
		return
	}
	switch e.Kind {
	case machine.TraceTxArrival:
		r.pendingArrival[proc] = e.Cycle
		r.pendingValid[proc] = true
	case machine.TraceTxBegin:
		r.begin(proc, e.Cycle)
	case machine.TraceConflict:
		r.tx[proc].aggressor = e.Peer
	}
	if !r.tx[proc].active {
		return // stray lifecycle event: no transaction in flight
	}
	switch e.Kind {
	case machine.TraceTxAttempt:
		r.attempt(proc, e.Path, e.Cycle)
	case machine.TraceTxAbort:
		r.abort(proc, e.Path, e.Reason, e.Cycle)
	case machine.TraceTxRetryWait:
		r.retryWaits++
		r.tx[proc].waiting = true
	case machine.TraceTxBackoff:
		r.tx[proc].backoff += e.Backoff
		r.backoffCycles += e.Backoff
	case machine.TraceTxCommit:
		r.commit(proc, e.Path, e.Cycle)
	}
}

func (r *Recorder) begin(proc int, cycle uint64) {
	r.begun++
	r.tx[proc] = txState{active: true, begin: cycle, attemptStart: cycle, aggressor: -1}
	if r.pendingValid[proc] {
		r.tx[proc].hasArrival = true
		r.tx[proc].arrival = r.pendingArrival[proc]
		r.pendingValid[proc] = false
	}
}

func (r *Recorder) attempt(proc int, path machine.TxPath, cycle uint64) {
	t := &r.tx[proc]
	if t.waiting {
		// The whole interval since the Retry attempt started counts as
		// transactional waiting, not wasted work.
		w := cycle - t.attemptStart
		t.retryWait += w
		r.retryWaitCycles += w
		t.waiting = false
	}
	t.attempts++
	t.path = path
	t.attemptStart = cycle
	if int(path) < len(r.attemptsByPath) {
		r.attemptsByPath[path]++
	}
}

func (r *Recorder) abort(proc int, path machine.TxPath, reason machine.AbortReason, cycle uint64) {
	t := &r.tx[proc]
	w := cycle - t.attemptStart
	t.wasted += w
	r.wastedCycles += w
	if int(path) < len(r.aborts) && int(reason) < len(r.aborts[path]) {
		r.aborts[path][reason]++
		r.wastedBy[path][reason] += w
	}
	if t.aggressor >= 0 && t.aggressor < r.procs {
		r.aggressorWasted[t.aggressor] += w
	} else {
		r.unknownWasted += w
	}
	t.aggressor = -1
	// Anything until the next attempt (backoff aside) is overhead.
	t.attemptStart = cycle
}

func (r *Recorder) commit(proc int, path machine.TxPath, cycle uint64) {
	t := &r.tx[proc]
	r.committed++
	if int(path) < len(r.commitsByPath) {
		r.commitsByPath[path]++
	}
	lat := cycle - t.begin
	useful := cycle - t.attemptStart
	r.usefulCycles += useful
	// The intervals are disjoint sub-ranges of [begin, commit], so the
	// residual is non-negative: begin-to-first-attempt setup plus
	// abort-to-retry gaps not spent in cm backoff.
	r.overheadCycles += lat - useful - t.wasted - t.backoff - t.retryWait
	r.latency.Observe(lat)
	r.attempts.Observe(t.attempts)
	if t.hasArrival {
		// Open-loop request: response time spans arrival to commit —
		// queueing delay (arrival to begin, accrued when the proc was
		// backlogged past the arrival cycle) plus service.
		r.requests++
		r.response.Observe(cycle - t.arrival)
		r.queueWait.Observe(t.begin - t.arrival)
	}
	r.tx[proc] = txState{aggressor: -1}
}

// Committed returns the number of committed transactions recorded so far.
func (r *Recorder) Committed() uint64 { return r.committed }

// Register copies the recorder's headline totals into reg under stable
// txstats.* metric names, tying the lifecycle layer into the same obs
// registry snapshot the rest of the run reports through.
func (r *Recorder) Register(reg *obs.Registry) {
	reg.Counter("txstats.begun", "txs", "transactions started (lifecycle accounting)").Add(r.begun)
	reg.Counter("txstats.committed", "txs", "transactions committed (lifecycle accounting)").Add(r.committed)
	reg.Counter("txstats.useful_cycles", "cycles", "cycles in committing attempts").Add(r.usefulCycles)
	reg.Counter("txstats.wasted_cycles", "cycles", "cycles in aborted attempts").Add(r.wastedCycles)
	reg.Counter("txstats.backoff_cycles", "cycles", "cycles in contention-management backoff inside transactions").Add(r.backoffCycles)
	reg.Counter("txstats.retry_wait_cycles", "cycles", "cycles suspended in Retry inside transactions").Add(r.retryWaitCycles)
	reg.Counter("txstats.overhead_cycles", "cycles", "committed-tx cycles outside attempts, backoff, and waiting").Add(r.overheadCycles)
	reg.Counter("txstats.retry_waits", "waits", "Retry suspensions recorded").Add(r.retryWaits)
	reg.WideHistogram("txstats.latency", "cycles", "committed transaction latency, begin to commit").Merge(r.latency)
	reg.Histogram("txstats.attempts", "attempts", "attempts needed per committed transaction").Merge(&r.attempts)
	// Open-loop metrics appear only when the workload tagged arrivals, so
	// closed-loop runs' metric snapshots are unchanged byte-for-byte.
	if r.requests > 0 {
		reg.Counter("txstats.requests", "requests", "open-loop requests serviced (arrival-tagged commits)").Add(r.requests)
		reg.WideHistogram("txstats.response", "cycles", "open-loop response time, arrival to commit (queueing + service)").Merge(r.response)
		reg.WideHistogram("txstats.queue_wait", "cycles", "open-loop queueing delay, arrival to transaction begin").Merge(r.queueWait)
	}
}
