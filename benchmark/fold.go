package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The fold turns a CPU profile of this process into per-layer buckets.
// A sample goes to one bucket, chosen from its stack: the leaf frame's
// repro package, or the Go runtime's scheduler, maps or GC. Frames of
// other standard-library packages, and the runtime's copy and clear
// primitives, pass the sample on to their caller.

// Bucket names. A repro/internal package's bucket is its layer; the Go
// runtime's samples go to the four go.* buckets.
const (
	bucketSched    = "go.sched"
	bucketMaps     = "go.maps"
	bucketGC       = "go.gc"
	bucketOther    = "go.other"
	bucketBench    = "bench"    // this benchmark's own wrappers and probes
	bucketUnmapped = "unmapped" // a repro package the layer map does not name
)

// layerOf maps every repro/internal package (path below internal/) to
// its layer. The drift test fails when a package is missing.
var layerOf = map[string]string{
	"harness": "harness",
	"sim":     "sim",
	"machine": "machine",
	"cache":   "cache",
	"mem":     "mem",

	"btm":       "tmsys",
	"core":      "tmsys",
	"ustm":      "ustm",
	"tl2":       "tmsys",
	"hytm":      "tmsys",
	"phtm":      "tmsys",
	"norec":     "tmsys",
	"unbounded": "tmsys",
	"seq":       "tmsys",
	"cm":        "tmsys",
	"tm":        "tmsys",
	"sle":       "tmsys",

	"stamp": "workload",
	"txlib": "workload",
	"oltp":  "workload",

	"txstats":    "obs",
	"contention": "obs",
	"obs":        "obs",

	// Packages no benchmark workload runs: tests, the litmus engine, the
	// tmbench suite and the UFO watchpoint demo.
	"conformance":        "offpath",
	"conformance/litmus": "offpath",
	"tmtest":             "offpath",
	"perf":               "offpath",
	"watch":              "offpath",
}

// shareMetrics lists the share metrics the traced run reports, each the
// sum of some buckets. tmsys.share covers every TM-system package,
// ustm included; ustm.share is ustm alone.
var shareMetrics = []struct {
	name    string
	buckets []string
}{
	{"harness.share", []string{"harness"}},
	{"sim.share", []string{"sim"}},
	{"machine.share", []string{"machine"}},
	{"cache.share", []string{"cache"}},
	{"mem.share", []string{"mem"}},
	{"tmsys.share", []string{"tmsys", "ustm"}},
	{"ustm.share", []string{"ustm"}},
	{"workload.share", []string{"workload"}},
	{"obs.share", []string{"obs"}},
	{"bench.share", []string{bucketBench}},
	{"go.sched_share", []string{bucketSched}},
	{"go.maps_share", []string{bucketMaps}},
	{"go.gc_share", []string{bucketGC}},
	{"go.other_share", []string{bucketOther, bucketUnmapped}},
}

// runtimeBuckets classifies runtime functions by name prefix. The fold
// walks up from the leaf through runtime frames and takes the first that
// matches.
var runtimeBuckets = []struct {
	prefix, bucket string
}{
	{"internal/runtime/maps.", bucketMaps},
	{"runtime.map", bucketMaps},
	{"runtime.makemap", bucketMaps},
	{"runtime.memhash", bucketMaps},
	{"runtime.strhash", bucketMaps},
	{"runtime.aeshash", bucketMaps},
	{"runtime.nilinterhash", bucketMaps},
	{"runtime.interhash", bucketMaps},
	{"runtime.typehash", bucketMaps},
	{"aeshashbody", bucketMaps}, // assembly, named without a package

	{"runtime.mallocgc", bucketGC},
	{"runtime.newobject", bucketGC},
	{"runtime.makeslice", bucketGC},
	{"runtime.growslice", bucketGC},
	{"runtime.newarray", bucketGC},
	{"runtime.convT", bucketGC},
	{"runtime.gcBgMarkWorker", bucketGC},
	{"runtime.gcDrain", bucketGC},
	{"runtime.gcAssist", bucketGC},
	{"runtime.gcStart", bucketGC},
	{"runtime.gcMark", bucketGC},
	{"runtime.gcWriteBarrier", bucketGC},
	{"runtime.wbBuf", bucketGC},
	{"runtime.bulkBarrier", bucketGC},
	{"runtime.scanobject", bucketGC},
	{"runtime.scanblock", bucketGC},
	{"runtime.scanstack", bucketGC},
	{"runtime.greyobject", bucketGC},
	{"runtime.markroot", bucketGC},
	{"runtime.findObject", bucketGC},
	{"runtime.sweepone", bucketGC},
	{"runtime.bgsweep", bucketGC},
	{"runtime.bgscavenge", bucketGC},
	{"runtime.(*mheap)", bucketGC},
	{"runtime.(*mcache)", bucketGC},
	{"runtime.(*mcentral)", bucketGC},
	{"runtime.(*mspan)", bucketGC},
	{"runtime.(*gcWork)", bucketGC},
	{"runtime.(*gcControllerState)", bucketGC},
	{"runtime.(*sweepLocked)", bucketGC},
	{"runtime.(*pageAlloc)", bucketGC},
	{"runtime.GC", bucketGC},
	{"runtime._GC", bucketGC},

	{"runtime.chansend", bucketSched},
	{"runtime.chanrecv", bucketSched},
	{"runtime.closechan", bucketSched},
	{"runtime.selectgo", bucketSched},
	{"runtime.send", bucketSched},
	{"runtime.recv", bucketSched},
	{"runtime.(*waitq)", bucketSched},
	{"runtime.gopark", bucketSched},
	{"runtime.goready", bucketSched},
	{"runtime.ready", bucketSched},
	{"runtime.park_m", bucketSched},
	{"runtime.schedule", bucketSched},
	{"runtime.findRunnable", bucketSched},
	{"runtime.stealWork", bucketSched},
	{"runtime.runq", bucketSched},
	{"runtime.globrunq", bucketSched},
	{"runtime.execute", bucketSched},
	{"runtime.gogo", bucketSched},
	{"gogo", bucketSched}, // assembly, named without a package
	{"runtime.mcall", bucketSched},
	{"runtime.gosched", bucketSched},
	{"runtime.Gosched", bucketSched},
	{"runtime.goschedImpl", bucketSched},
	{"runtime.gopreempt", bucketSched},
	{"runtime.asyncPreempt", bucketSched},
	{"runtime.newproc", bucketSched},
	{"runtime.goexit0", bucketSched},
	{"runtime.casgstatus", bucketSched},
	{"runtime.wakep", bucketSched},
	{"runtime.startm", bucketSched},
	{"runtime.stopm", bucketSched},
	{"runtime.handoffp", bucketSched},
	{"runtime.acquirep", bucketSched},
	{"runtime.releasep", bucketSched},
	{"runtime.mPark", bucketSched},
	{"runtime.resetspinning", bucketSched},
	{"runtime.checkTimers", bucketSched},
	{"runtime.futex", bucketSched},
	{"runtime.notesleep", bucketSched},
	{"runtime.notewakeup", bucketSched},
	{"runtime.semacquire", bucketSched},
	{"runtime.semrelease", bucketSched},
	{"runtime.lock", bucketSched},
	{"runtime.unlock", bucketSched},
	{"runtime.osyield", bucketSched},
	{"runtime.usleep", bucketSched},
	{"runtime.procyield", bucketSched},
	{"runtime.coro", bucketSched},
	{"sync.runtime_Sem", bucketSched},
}

// passThrough are runtime functions that do work on their caller's
// behalf (copies, clears, comparisons, clock reads, system calls): a
// sample in them belongs to whoever called them.
var passThrough = []string{
	"runtime.memmove", "runtime.memclrNoHeapPointers", "runtime.memequal",
	"runtime.cmpbody", "runtime.duffcopy", "runtime.duffzero",
	"runtime.typedmemmove", "runtime.typedslicecopy", "runtime.nanotime",
	"runtime.walltime", "runtime.concatstring", "runtime.slicebytetostring",
	"runtime.panicIndex", "runtime.panicBounds", "runtime.gorecover",
	"runtime.deferreturn", "runtime.deferproc", "runtime.deferprocStack",
	"runtime.gopanic", "runtime.(*_panic)", "runtime.addOneOpenDeferFrame",
	"internal/runtime/syscall.",
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/") || strings.HasPrefix(fn, "sync.runtime_")
}

func hasAnyPrefix(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// reproLayer returns the bucket of a function in this module, and false
// for functions outside it.
func reproLayer(fn string) (string, bool) {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "repro/benchmark."):
		return bucketBench, true
	case strings.HasPrefix(fn, "repro/internal/"):
		pkg := fn[len("repro/internal/"):]
		// The package path ends at the first dot after the last slash.
		slash := strings.LastIndex(pkg, "/")
		if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
			pkg = pkg[:slash+1+dot]
		}
		if l, ok := layerOf[pkg]; ok {
			return l, true
		}
		return bucketUnmapped, true
	case strings.HasPrefix(fn, "repro/"):
		return bucketUnmapped, true
	}
	return "", false
}

// bucketOf classifies one stack, leaf first.
func bucketOf(stack []string) string {
	inRuntime := false // passed a runtime frame that is not a pass-through
	for _, fn := range stack {
		if l, ok := reproLayer(fn); ok {
			if inRuntime {
				return bucketOther
			}
			return l
		}
		for _, rb := range runtimeBuckets {
			if strings.HasPrefix(fn, rb.prefix) {
				return rb.bucket
			}
		}
		if isRuntime(fn) && !hasAnyPrefix(fn, passThrough) {
			inRuntime = true
		}
	}
	return bucketOther
}

// fold is a profile's samples per bucket, with the hottest leaf
// functions of each.
type fold struct {
	total   int64
	buckets map[string]int64
	leaves  map[string]map[string]int64 // bucket → leaf function → samples
}

func (f *fold) share(buckets ...string) float64 {
	if f.total == 0 {
		return 0
	}
	var n int64
	for _, b := range buckets {
		n += f.buckets[b]
	}
	return float64(n) / float64(f.total)
}

// topLeaves returns a bucket's k hottest leaf functions.
func (f *fold) topLeaves(bucket string, k int) []string {
	type kv struct {
		fn string
		n  int64
	}
	var all []kv
	for fn, n := range f.leaves[bucket] {
		all = append(all, kv{fn, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].fn < all[j].fn
	})
	var out []string
	for i := 0; i < len(all) && i < k; i++ {
		out = append(out, fmt.Sprintf("%s %.1f%%", all[i].fn, 100*float64(all[i].n)/float64(f.total)))
	}
	return out
}

// foldProfile decodes a gzipped pprof CPU profile and folds its samples.
func foldProfile(gz []byte) (*fold, error) {
	stacks, counts, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	f := &fold{buckets: map[string]int64{}, leaves: map[string]map[string]int64{}}
	for i, st := range stacks {
		n := counts[i]
		b := bucketOf(st)
		f.total += n
		f.buckets[b] += n
		if f.leaves[b] == nil {
			f.leaves[b] = map[string]int64{}
		}
		leaf := "?"
		if len(st) > 0 {
			leaf = st[0]
		}
		f.leaves[b][leaf] += n
	}
	return f, nil
}

// decodeProfile reads the subset of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) the fold needs: each
// sample's stack as function names, leaf first (inlined frames
// expanded), and its first value, the sample count.
func decodeProfile(gz []byte) (stacks [][]string, counts []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		val  int64
	}
	var (
		samples []sample
		strtab  []string
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → string-table index
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			var vals []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.val = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, s := range samples {
		var st []string
		for _, l := range s.locs {
			for _, fid := range locFns[l] {
				name := "?"
				if i := fnName[fid]; i >= 0 && int(i) < len(strtab) {
					name = strtab[i]
				}
				st = append(st, name)
			}
		}
		stacks = append(stacks, st)
		counts = append(counts, s.val)
	}
	return stacks, counts, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for each field of a protobuf message: v holds a
// varint's value, b a length-delimited field's bytes. Fixed-width fields
// are skipped.
func walkFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n == 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = varint(msg)
			if n == 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := varint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's value: one varint
// when unpacked (b is nil), every varint of b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// varint decodes a protobuf varint, returning its length (0 on error).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// sortByCount orders names by descending count, then by name.
func sortByCount(names []string, count map[string]int64) {
	sort.Slice(names, func(i, j int) bool {
		if count[names[i]] != count[names[j]] {
			return count[names[i]] > count[names[j]]
		}
		return names[i] < names[j]
	})
}
