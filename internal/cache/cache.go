// Package cache models the parts of the cache hierarchy that the paper's
// results depend on: a per-processor set-associative L1 occupancy model
// (which determines BTM's transactional capacity and therefore its
// overflow aborts) and a directory that tracks which processors hold a
// copy of each line (which drives invalidations, conflict detection, and
// transfer timing).
//
// Data never lives here — the single architectural copy of memory contents
// and UFO bits is in package mem; because the simulation engine serializes
// processors at memory-operation granularity, caches only need to model
// presence, not values.
//
// Paper: §3.1 (L1 capacity bounds BTM) and §5.1 (simulated hierarchy,
// Table 4 parameters).
package cache

import (
	"fmt"
	"math/bits"
)

// L1 is a set-associative occupancy model with LRU replacement.
type L1 struct {
	ways   int
	mask   uint64 // sets-1: the set count is a power of two
	lines  []way  // set s occupies lines[s*ways : (s+1)*ways]
	clock  uint64
	misses uint64
	hits   uint64
}

type way struct {
	line  uint64
	valid bool
	lru   uint64
}

// NewL1 builds a cache of sizeBytes with the given associativity over
// 64-byte lines. Both the set count and associativity must be positive,
// size must divide evenly, and the set count must be a power of two so
// a line's set is a mask of its number.
func NewL1(sizeBytes, lineBytes, ways int) *L1 {
	if sizeBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		panic("cache: non-positive geometry")
	}
	lines := sizeBytes / lineBytes
	if lines%ways != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by %d ways", lines, ways))
	}
	sets := lines / ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two", sets))
	}
	return &L1{ways: ways, mask: uint64(sets - 1), lines: make([]way, sets*ways)}
}

// Sets returns the number of sets.
func (c *L1) Sets() int { return int(c.mask) + 1 }

// Ways returns the associativity.
func (c *L1) Ways() int { return c.ways }

func (c *L1) set(line uint64) []way {
	i := int(line&c.mask) * c.ways
	return c.lines[i : i+c.ways : i+c.ways]
}

// Contains reports whether line is resident.
func (c *L1) Contains(line uint64) bool {
	for _, w := range c.set(line) {
		if w.valid && w.line == line {
			return true
		}
	}
	return false
}

// Touch references line, returning whether it hit and, on a miss that
// required replacement, the victim line that was evicted.
func (c *L1) Touch(line uint64) (hit bool, victim uint64, evicted bool) {
	c.clock++
	set := c.set(line)
	var lruIdx int
	var freeIdx = -1
	for i := range set {
		w := &set[i]
		if w.valid && w.line == line {
			w.lru = c.clock
			c.hits++
			return true, 0, false
		}
		if !w.valid {
			freeIdx = i
		} else if set[lruIdx].lru > w.lru || !set[lruIdx].valid {
			lruIdx = i
		}
	}
	c.misses++
	if freeIdx >= 0 {
		set[freeIdx] = way{line: line, valid: true, lru: c.clock}
		return false, 0, false
	}
	victim = set[lruIdx].line
	set[lruIdx] = way{line: line, valid: true, lru: c.clock}
	return false, victim, true
}

// Invalidate removes line if resident.
func (c *L1) Invalidate(line uint64) {
	set := c.set(line)
	for i := range set {
		if w := &set[i]; w.valid && w.line == line {
			w.valid = false
			return
		}
	}
}

// InvalidateAll empties the cache (used when modeling context switches in
// stress tests; BTM itself only flash-clears transactional state).
func (c *L1) InvalidateAll() {
	for i := range c.lines {
		c.lines[i].valid = false
	}
}

// Hits and Misses report reference counts since construction.
func (c *L1) Hits() uint64   { return c.hits }
func (c *L1) Misses() uint64 { return c.misses }

// Lines returns every resident line (for consistency checking).
func (c *L1) Lines() []uint64 {
	var out []uint64
	for _, w := range c.lines {
		if w.valid {
			out = append(out, w.line)
		}
	}
	return out
}

// MaxProcs is the largest processor count the directory's sharer sets
// (and therefore the machine) support.
const MaxProcs = 256

// ProcSet is a fixed-width bitmask over processor IDs 0..MaxProcs-1:
// a line's sharers as the directory reports them, or its holders in the
// machine's SR/SW index.
type ProcSet [MaxProcs / 64]uint64

// Set records processor p as a member.
func (s *ProcSet) Set(p int) { s[uint(p)/64] |= 1 << (uint(p) % 64) }

// Clear removes processor p.
func (s *ProcSet) Clear(p int) { s[uint(p)/64] &^= 1 << (uint(p) % 64) }

// Has reports whether processor p is a member.
func (s ProcSet) Has(p int) bool { return s[uint(p)/64]&(1<<(uint(p)%64)) != 0 }

// Empty reports whether no processor is a member.
func (s ProcSet) Empty() bool { return s[0]|s[1]|s[2]|s[3] == 0 }

// Next returns the smallest member that is at least from, or -1 when
// there is none. Members are visited in ascending order by
// for q := s.Next(0); q >= 0; q = s.Next(q + 1).
func (s ProcSet) Next(from int) int {
	for w := from / 64; w < len(s); w++ {
		m := s[w]
		if w == from/64 {
			m &= ^uint64(0) << (uint(from) % 64)
		}
		if m != 0 {
			return w*64 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// TablePageLines is the number of lines in one page of a LineTable: one
// 64-bit word holds a bit per line of a page.
const TablePageLines = 64

// LineTable is a dense table of fixed-width per-line records of 64-bit
// words, indexed by line number. Pages of TablePageLines lines are
// allocated on first write, and the page table grows to cover the
// highest page written, so a table costs memory only for the region a
// run touches. Each page may start with a few header words shared by its
// lines.
type LineTable struct {
	head  int // header words at the start of each page
	width int // words per line record
	pages [][]uint64
}

// NewLineTable returns an empty table whose pages carry head header
// words followed by one width-word record per line.
func NewLineTable(head, width int) LineTable {
	return LineTable{head: head, width: width}
}

// Page returns the page holding line, or nil when nothing on it was
// written.
func (t *LineTable) Page(line uint64) []uint64 {
	if pi := line / TablePageLines; pi < uint64(len(t.pages)) {
		return t.pages[pi]
	}
	return nil
}

// Alloc returns the page holding line, allocating it (and growing the
// page table) if needed.
func (t *LineTable) Alloc(line uint64) []uint64 {
	pi := line / TablePageLines
	if pi >= uint64(len(t.pages)) {
		grown := make([][]uint64, max(pi+1, 2*uint64(len(t.pages))))
		copy(grown, t.pages)
		t.pages = grown
	}
	pg := t.pages[pi]
	if pg == nil {
		pg = make([]uint64, t.head+TablePageLines*t.width)
		t.pages[pi] = pg
	}
	return pg
}

// Record returns line's record on its page pg.
func (t *LineTable) Record(pg []uint64, line uint64) []uint64 {
	i := t.head + int(line%TablePageLines)*t.width
	return pg[i : i+t.width : i+t.width]
}

// ForEach visits, in ascending line order, every line whose record has a
// non-zero word.
func (t *LineTable) ForEach(f func(line uint64, rec []uint64)) {
	for pi, pg := range t.pages {
		if pg == nil {
			continue
		}
		for i := uint64(0); i < TablePageLines; i++ {
			line := uint64(pi)*TablePageLines + i
			rec := t.Record(pg, line)
			for _, w := range rec {
				if w != 0 {
					f(line, rec)
					break
				}
			}
		}
	}
}

// Directory tracks, for every line, the set of processors holding a
// cached copy, and whether the line was ever fetched (a warm line misses
// to the L2 instead of memory). Each page of its LineTable holds a warm
// word for its lines, then one sharer record per line sized to the
// processor count: a single word up to 64 processors.
type Directory struct {
	t LineTable
}

// NewDirectory creates an empty directory for up to MaxProcs processors.
func NewDirectory() *Directory { return NewDirectoryFor(MaxProcs) }

// NewDirectoryFor creates an empty directory for procs processors.
func NewDirectoryFor(procs int) *Directory {
	if procs <= 0 || procs > MaxProcs {
		panic(fmt.Sprintf("cache: directory for %d processors, want 1..%d", procs, MaxProcs))
	}
	return &Directory{t: NewLineTable(1, (procs+63)/64)}
}

// Sharers returns the sharer set for line (zero value when unshared).
func (d *Directory) Sharers(line uint64) ProcSet {
	var s ProcSet
	if pg := d.t.Page(line); pg != nil {
		copy(s[:], d.t.Record(pg, line))
	}
	return s
}

// Add records that processor p holds line.
func (d *Directory) Add(line uint64, p int) {
	d.t.Record(d.t.Alloc(line), line)[p/64] |= 1 << (p % 64)
}

// Fill records that processor p fetched line on a miss. It reports
// whether the line was fetched before (by any processor) and whether a
// processor other than p holds a copy.
func (d *Directory) Fill(line uint64, p int) (warm, shared bool) {
	pg := d.t.Alloc(line)
	bit := uint64(1) << (line % TablePageLines)
	warm = pg[0]&bit != 0
	pg[0] |= bit
	rec := d.t.Record(pg, line)
	rec[p/64] |= 1 << (p % 64)
	for i, w := range rec {
		if i == p/64 {
			w &^= 1 << (p % 64)
		}
		if w != 0 {
			shared = true
		}
	}
	return warm, shared
}

// Remove records that processor p no longer holds line.
func (d *Directory) Remove(line uint64, p int) {
	if pg := d.t.Page(line); pg != nil {
		d.t.Record(pg, line)[p/64] &^= 1 << (p % 64)
	}
}

// Others returns the processors other than p that hold line.
func (d *Directory) Others(line uint64, p int) ProcSet {
	s := d.Sharers(line)
	s.Clear(p)
	return s
}

// RemoveOthers removes every sharer of line except p, returning the
// processors it removed: the directory side of an exclusive-permission
// request.
func (d *Directory) RemoveOthers(line uint64, p int) ProcSet {
	var s ProcSet
	pg := d.t.Page(line)
	if pg == nil {
		return s
	}
	rec := d.t.Record(pg, line)
	for i, w := range rec {
		keep := uint64(0)
		if i == p/64 {
			keep = w & (1 << (p % 64))
		}
		s[i] = w &^ keep
		rec[i] = keep
	}
	return s
}

// HeldBy reports whether processor p holds line.
func (d *Directory) HeldBy(line uint64, p int) bool {
	pg := d.t.Page(line)
	return pg != nil && d.t.Record(pg, line)[p/64]&(1<<(p%64)) != 0
}

// ForEach visits every line with at least one sharer.
func (d *Directory) ForEach(f func(line uint64, sharers ProcSet)) {
	d.t.ForEach(func(line uint64, rec []uint64) {
		var s ProcSet
		copy(s[:], rec)
		f(line, s)
	})
}
