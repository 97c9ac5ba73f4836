package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
)

// metric is one reported number. note is printed beside it in the text
// table only.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortU64(xs []uint64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// exact returns the q-quantile of sorted by nearest rank.
func exact(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// since is the CPU time from a to b, or 0 when a failed cell never
// reached either step.
func since(a, b time.Duration) time.Duration {
	if a == 0 || b == 0 {
		return 0
	}
	return b - a
}

// setupEnd is when a cell's first simulated thread ran; a cell that
// failed before that ends its set-up when it ends.
func (c *cell) setupEnd() time.Duration {
	if c.firstThread == 0 {
		return c.end
	}
	return c.firstThread
}

func refs(r harness.Result) uint64 {
	if r.Metrics == nil {
		return 0
	}
	return r.Metrics.Counter(machine.MetricL1Hits) + r.Metrics.Counter(machine.MetricL1Misses)
}

func (p pass) cycles() (n uint64) {
	for _, r := range p.results {
		n += r.Cycles
	}
	return n
}

func (p pass) refs() (n uint64) {
	for _, r := range p.results {
		n += refs(r)
	}
	return n
}

func (p pass) setup() (d time.Duration) {
	for _, c := range p.cells {
		d += since(c.start, c.setupEnd())
	}
	return d
}

func (p pass) failed() (n int) {
	for _, r := range p.results {
		if r.Err != nil {
			n++
		}
	}
	return n
}

// endToEnd is the end-to-end metrics of a workload: the median over
// untraced passes of each pass's value. Host times are process CPU
// time; wall time is printed beside them but not gated.
func endToEnd(passes []pass) []metric {
	var cpu, wall, rate, perRef, setup, alloc, cyc []float64
	attempted, failed := 0, 0
	for _, p := range passes {
		c := p.cpu.Seconds()
		cpu = append(cpu, c)
		wall = append(wall, p.wall.Seconds())
		rate = append(rate, ratio(float64(p.cycles()), c))
		perRef = append(perRef, ratio(float64(p.cpu.Nanoseconds()), float64(p.refs())))
		setup = append(setup, p.setup().Seconds())
		alloc = append(alloc, float64(p.alloc)/(1<<20))
		cyc = append(cyc, float64(p.cycles()))
		attempted += len(p.results)
		failed += p.failed()
	}
	n := fmt.Sprintf("median of %d passes", len(passes))
	return []metric{
		{"cpu_s", median(cpu), "s", n},
		{"sim_cycles_per_cpu_s", median(rate), "cycles/s", n},
		{"ns_per_ref", median(perRef), "ns", n},
		{"setup_s", median(setup), "s", n},
		{"alloc_mb", median(alloc), "MB", n},
		{"sim_cycles", median(cyc), "cycles", "deterministic"},
		{"wall_s", median(wall), "s", n + "; not gated"},
		{"fail_frac", ratio(float64(failed), float64(attempted)), "ratio", fmt.Sprintf("%d of %d cells; not gated", failed, attempted)},
	}
}

// sysName is a system's name as a metric-name component.
func sysName(s harness.SystemKind) string { return strings.ReplaceAll(string(s), "+", "-") }

// reportedSystems are the systems with a harness.sys_s metric: every
// system any workload runs.
var reportedSystems = append([]harness.SystemKind{harness.Sequential}, harness.Figure5Systems...)

// tailLevels are the percentiles cell_tail_ms may report, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.8, 0.5}

// tail returns the highest tail level with at least ten samples beyond
// it, or the maximum when there are too few samples for any.
func tail(sorted []float64) (float64, string) {
	n := float64(len(sorted))
	for _, q := range tailLevels {
		if n*(1-q) >= 10-1e-9 {
			i := int(math.Ceil(q*n)) - 1
			return sorted[i], fmt.Sprintf("p%g, n=%d", 100*q, len(sorted))
		}
	}
	if len(sorted) == 0 {
		return 0, "n=0"
	}
	return sorted[len(sorted)-1], fmt.Sprintf("max, n=%d", len(sorted))
}

// layers is the per-layer metrics of a traced run: ref are its untraced
// passes, traced its passes under the wrappers and the CPU profile.
func layers(ref, traced []pass, f *fold, probe map[string]float64, peakRSS float64) []metric {
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name: name, value: v, unit: unit}) }

	// harness: host CPU time per cell phase, median over traced passes.
	phase := func(get func(c *cell) time.Duration) float64 {
		var xs []float64
		for _, p := range traced {
			var d time.Duration
			for _, c := range p.cells {
				d += get(c)
			}
			xs = append(xs, d.Seconds())
		}
		return median(xs)
	}
	first := traced[0]
	add("harness.cells", float64(len(first.cells)), "count")
	var walls []float64
	for _, p := range traced {
		walls = append(walls, p.wall.Seconds())
	}
	add("harness.wall_s", median(walls), "s")
	add("harness.new_s", phase(func(c *cell) time.Duration { return since(c.start, c.made) }), "s")
	add("harness.build_s", phase(func(c *cell) time.Duration { return since(c.made, c.initStart) }), "s")
	add("harness.init_s", phase(func(c *cell) time.Duration { return since(c.initStart, c.initEnd) }), "s")
	simS := phase(func(c *cell) time.Duration { return since(c.firstThread, c.valStart) })
	add("harness.sim_s", simS, "s")
	add("harness.validate_s", phase(func(c *cell) time.Duration { return since(c.valStart, c.valEnd) }), "s")
	add("harness.report_s", phase(func(c *cell) time.Duration { return since(c.valEnd, c.end) }), "s")
	var cellMs []float64
	for _, p := range traced {
		for _, c := range p.cells {
			cellMs = append(cellMs, 1e3*since(c.start, c.end).Seconds())
		}
	}
	sort.Float64s(cellMs)
	add("harness.cell_p50_ms", median(cellMs), "ms")
	tv, tnote := tail(cellMs)
	out = append(out, metric{"harness.cell_tail_ms", tv, "ms", tnote})
	for _, s := range reportedSystems {
		add("harness.sys_s."+sysName(s), phase(func(c *cell) time.Duration {
			if c.job.System != s {
				return 0
			}
			return since(c.start, c.end)
		}), "s")
	}

	// Simulated counts: deterministic, so one pass gives them.
	var steps, hits, misses, atomics, attempts uint64
	var mc machine.Counters
	var swCommits, failovers, swAborts, stalls, cmDelay uint64
	for i, c := range first.cells {
		r := first.results[i]
		steps += c.steps
		for _, t := range c.threads {
			atomics += t.atomics
			attempts += t.attempts
		}
		if r.Metrics != nil {
			hits += r.Metrics.Counter(machine.MetricL1Hits)
			misses += r.Metrics.Counter(machine.MetricL1Misses)
			cmDelay += r.Metrics.Counter("cm.delay_cycles")
		}
		mc.HWCommits += r.Machine.HWCommits
		mc.Nacks += r.Machine.Nacks
		mc.UFOFaults += r.Machine.UFOFaults
		for k, n := range r.Machine.HWAbortsByReason {
			mc.HWAbortsByReason[k] += n
		}
		swCommits += r.Stats.SWCommits
		failovers += r.Stats.Failovers
		swAborts += r.Stats.SWAborts
		stalls += r.Stats.SWStalls + r.Stats.NTStalls
	}
	var aborts uint64
	for _, n := range mc.HWAbortsByReason {
		aborts += n
	}
	add("sim.steps", float64(steps), "count")
	add("sim.ns_per_step", ratio(1e9*simS, float64(steps)), "ns")
	add("machine.refs", float64(hits+misses), "count")
	add("machine.hw_commits", float64(mc.HWCommits), "count")
	add("machine.hw_aborts", float64(aborts), "count")
	add("machine.hw_aborts.conflict", float64(mc.HWAbortsByReason[machine.AbortConflict]), "count")
	add("machine.hw_aborts.overflow", float64(mc.HWAbortsByReason[machine.AbortOverflow]), "count")
	add("machine.hw_aborts.ufo", float64(mc.HWAbortsByReason[machine.AbortUFOKill]+mc.HWAbortsByReason[machine.AbortUFOFault]), "count")
	add("machine.hw_useful_ratio", ratio(float64(mc.HWCommits), float64(mc.HWCommits+aborts)), "ratio")
	add("machine.nacks", float64(mc.Nacks), "count")
	add("machine.ufo_faults", float64(mc.UFOFaults), "count")
	add("cache.l1_miss_ratio", ratio(float64(misses), float64(hits+misses)), "ratio")
	add("tm.atomics", float64(atomics), "count")
	add("tm.attempts", float64(attempts), "count")
	add("tm.commit_ratio", ratio(float64(atomics), float64(attempts)), "ratio")
	add("tm.sw_commits", float64(swCommits), "count")
	add("tm.failovers", float64(failovers), "count")
	add("tm.sw_aborts", float64(swAborts), "count")
	add("tm.stalls", float64(stalls), "count")
	add("cm.delay_cycles", float64(cmDelay), "cycles")

	// oltp: exact response and queue percentiles from the wrapper's
	// samples, pooled per system over the sweep's cells.
	resp := map[harness.SystemKind][]uint64{}
	var queue []uint64
	var requests int
	for _, c := range first.cells {
		for _, t := range c.threads {
			resp[c.job.System] = append(resp[c.job.System], t.response...)
			queue = append(queue, t.queue...)
			requests += len(t.response)
		}
	}
	add("oltp.requests", float64(requests), "count")
	for _, s := range harness.OLTPSystems {
		xs := resp[s]
		sortU64(xs)
		add("oltp.resp_p50_cycles."+sysName(s), float64(exact(xs, 0.5)), "cycles")
		add("oltp.resp_p99_cycles."+sysName(s), float64(exact(xs, 0.99)), "cycles")
	}
	sortU64(queue)
	add("oltp.queue_p99_cycles", float64(exact(queue, 0.99)), "cycles")

	// Host CPU by layer, from the profile of the traced passes.
	for _, s := range shareMetrics {
		add(s.name, f.share(s.buckets...), "ratio")
	}
	for _, p := range probes {
		add(p.name, probe[p.name], "ns")
	}

	// Go runtime, over the untraced passes.
	var gcs, mallocs []float64
	for _, p := range ref {
		gcs = append(gcs, float64(p.gcs))
		mallocs = append(mallocs, float64(p.mallocs))
	}
	add("go.gc_cycles", median(gcs), "count")
	add("go.mallocs", median(mallocs), "count")
	add("go.peak_rss_mb", peakRSS, "MB")

	var tw, rw []float64
	for _, p := range traced {
		tw = append(tw, p.cpu.Seconds())
	}
	for _, p := range ref {
		rw = append(rw, p.cpu.Seconds())
	}
	add("trace.overhead", ratio(median(tw), median(rw))-1, "ratio")
	return out
}

// signature is the simulated outcome of a pass: per cell, its cycles,
// memory references and engine steps, and with counts set its traced
// transaction counts and response samples.
func signature(p pass, counts bool) string {
	var b strings.Builder
	for i, r := range p.results {
		fmt.Fprintf(&b, "%d/%d/%d", r.Cycles, refs(r), p.cells[i].steps)
		if counts {
			for _, t := range p.cells[i].threads {
				fmt.Fprintf(&b, ",%d/%d/%v", t.atomics, t.attempts, t.response)
			}
		}
		b.WriteByte(';')
	}
	return b.String()
}

// deterministic reports whether every pass of one workload and seed
// agrees on the simulated outcome, and the traced passes also on their
// counts.
func deterministic(passes []pass) bool {
	var base, traced string
	for _, p := range passes {
		if s := signature(p, false); base == "" {
			base = s
		} else if s != base {
			return false
		}
		if !p.traced {
			continue
		}
		if s := signature(p, true); traced == "" {
			traced = s
		} else if s != traced {
			return false
		}
	}
	return true
}
