package main

import (
	"runtime"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/oltp"
	"repro/internal/stamp"
	"repro/internal/tm"
)

// cpuNow is the process's CPU time so far: user plus system time of
// all its threads. The benchmark times in CPU time rather than wall
// time because on a shared virtual machine wall time also counts the
// time the hypervisor gives to other guests.
func cpuNow() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusage is the process's resource usage so far.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cell is what the wrappers see of one job: process CPU time at each
// step across the harness → workload boundary (zero for a step a failed
// cell never reached), the engine's step count, and, when traced,
// per-thread counts at the workload → TM boundary.
//
// Simulated procs are goroutines that run one at a time under the
// engine's token, handed over by channel operations, so the threads'
// writes here are ordered without locks; each thread also writes only
// its own threadObs.
type cell struct {
	job harness.Job

	start       time.Duration // Factory.New called: the cell began
	made        time.Duration // Factory.New returned
	initStart   time.Duration // Workload.Init called: machine.New and Build are done
	initEnd     time.Duration
	firstThread time.Duration // the first simulated thread ran: set-up is over
	valStart    time.Duration // Workload.Validate called: the simulation is over
	valEnd      time.Duration
	end         time.Duration // the Runner reported the cell done

	steps   uint64 // machine.Eng.Steps() after the run
	threads []threadObs
}

// threadObs counts one simulated thread's calls into the TM system.
type threadObs struct {
	atomics  uint64 // Exec.Atomic calls
	attempts uint64 // transaction-body executions, including re-executions
	// arrivals is the open-loop trace of an oltp thread: its k-th Atomic
	// serves the request arriving at arrivals[k]. Nil for closed loops.
	arrivals []uint64
	response []uint64 // arrival to Atomic return, simulated cycles
	queue    []uint64 // arrival to Atomic call, simulated cycles
}

// observe wraps each job's factory so every cell it builds reports to a
// fresh cell record. With traced set, the workload's execution contexts
// are wrapped too.
func observe(jobs []harness.Job, traced bool) ([]harness.Job, []*cell) {
	out := make([]harness.Job, len(jobs))
	cells := make([]*cell, len(jobs))
	arrivals := map[oltp.Config][][]uint64{}
	for i, j := range jobs {
		c := &cell{job: j}
		f := j.Factory
		j.Factory = harness.WorkloadFactory{Name: f.Name, New: func() stamp.Workload {
			c.start = cpuNow()
			w := f.New()
			c.made = cpuNow()
			return &observedWorkload{Workload: w, c: c, traced: traced, arrivals: arrivals}
		}}
		out[i], cells[i] = j, c
	}
	return out, cells
}

type observedWorkload struct {
	stamp.Workload
	c      *cell
	traced bool
	// arrivals holds each oltp config's per-thread arrival times, shared
	// by the pass's cells so each trace is generated once, not per system.
	arrivals map[oltp.Config][][]uint64
}

func (w *observedWorkload) Init(m *machine.Machine, threads int) {
	w.c.initStart = cpuNow()
	w.Workload.Init(m, threads)
	w.c.initEnd = cpuNow()
	if !w.traced {
		return
	}
	w.c.threads = make([]threadObs, threads)
	if o, ok := w.Workload.(*oltp.Workload); ok {
		cfg := o.Config()
		arr := w.arrivals[cfg]
		if len(arr) != threads {
			arr = make([][]uint64, threads)
			for i := range arr {
				for _, rq := range cfg.Trace(i) {
					arr[i] = append(arr[i], rq.Arrival)
				}
			}
			w.arrivals[cfg] = arr
		}
		for i := range w.c.threads {
			w.c.threads[i].arrivals = arr[i]
		}
	}
}

func (w *observedWorkload) Thread(i int, ex tm.Exec) {
	if w.c.firstThread == 0 {
		w.c.firstThread = cpuNow()
	}
	if w.traced {
		ex = &observedExec{Exec: ex, t: &w.c.threads[i]}
	}
	w.Workload.Thread(i, ex)
}

func (w *observedWorkload) Validate(m *machine.Machine) error {
	w.c.valStart = cpuNow()
	w.c.steps = m.Eng.Steps()
	err := w.Workload.Validate(m)
	w.c.valEnd = cpuNow()
	return err
}

// observedExec counts transactions and their attempts. It reads the
// simulated clock but never advances it, so the run stays bit-identical.
type observedExec struct {
	tm.Exec
	t *threadObs
}

func (e *observedExec) Atomic(body func(tm.Tx)) {
	t := e.t
	p := e.Proc()
	called := p.Now()
	t.atomics++
	e.Exec.Atomic(func(tx tm.Tx) {
		t.attempts++
		body(tx)
	})
	if k := int(t.atomics) - 1; k < len(t.arrivals) {
		arrival := t.arrivals[k]
		t.response = append(t.response, p.Now()-arrival)
		t.queue = append(t.queue, called-arrival)
	}
}

// pass is one execution of a workload's whole job list.
type pass struct {
	traced  bool
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64 // bytes allocated (runtime.MemStats.TotalAlloc delta)
	mallocs uint64
	gcs     uint32
	cells   []*cell
	results []harness.Result
}

// runPass executes jobs once on a one-worker Runner.
func runPass(jobs []harness.Job, traced bool) pass {
	jobs, cells := observe(jobs, traced)
	done := 0
	r := &harness.Runner{Workers: 1, Progress: func(harness.Progress) {
		// One worker finishes cells in job order.
		cells[done].end = cpuNow()
		done++
	}}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start, cpu := time.Now(), cpuNow()
	// A failing cell is reported in its Result; the aggregated error
	// adds nothing the results do not carry.
	results, _ := r.Execute(jobs)
	wall, cpu := time.Since(start), cpuNow()-cpu
	runtime.ReadMemStats(&after)
	return pass{
		traced:  traced,
		wall:    wall,
		cpu:     cpu,
		alloc:   after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs,
		gcs:     after.NumGC - before.NumGC,
		cells:   cells,
		results: results,
	}
}

// runPasses repeats runPass while another pass is predicted to end
// within budget; it always runs at least one.
func runPasses(jobs func() []harness.Job, traced bool, budget time.Duration) []pass {
	var passes []pass
	start := time.Now()
	for {
		p := runPass(jobs(), traced)
		passes = append(passes, p)
		if time.Since(start)+p.wall > budget {
			return passes
		}
	}
}
