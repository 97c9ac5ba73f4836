package cache

import (
	"testing"
	"testing/quick"
)

func TestGeometry(t *testing.T) {
	c := NewL1(32*1024, 64, 4)
	if c.Sets() != 128 || c.Ways() != 4 {
		t.Fatalf("geometry = %d sets × %d ways, want 128×4", c.Sets(), c.Ways())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewL1(0, 64, 4)
}

func TestNonPowerOfTwoSetsPanics(t *testing.T) {
	// 3 KB at 4 ways over 64-byte lines is 12 sets: the mask index needs a
	// power of two. Less than one line per way is zero sets.
	for _, size := range []int{3 * 1024, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewL1(%d, 64, 4): expected panic", size)
				}
			}()
			NewL1(size, 64, 4)
		}()
	}
}

func TestSetsAreIndependent(t *testing.T) {
	// 4 sets × 2 ways: filling set 1 past its ways must not evict lines of
	// the other sets, and each set evicts its own LRU way.
	c := NewL1(8*64, 64, 2)
	for _, l := range []uint64{0, 2, 3, 1, 5} {
		c.Touch(l)
	}
	_, victim, evicted := c.Touch(9) // set 1: 1, 5 resident; 1 is LRU
	if !evicted || victim != 1 {
		t.Fatalf("evicted=%v victim=%d, want eviction of line 1", evicted, victim)
	}
	for _, l := range []uint64{0, 2, 3, 5, 9} {
		if !c.Contains(l) {
			t.Fatalf("line %d missing", l)
		}
	}
	if got := len(c.Lines()); got != 5 {
		t.Fatalf("%d resident lines, want 5", got)
	}
}

func TestHitAfterTouch(t *testing.T) {
	c := NewL1(4096, 64, 2)
	if hit, _, _ := c.Touch(7); hit {
		t.Fatal("first touch must miss")
	}
	if hit, _, _ := c.Touch(7); !hit {
		t.Fatal("second touch must hit")
	}
	if !c.Contains(7) || c.Contains(8) {
		t.Fatal("Contains wrong")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache, 2 sets. Lines 0,2,4 map to set 0.
	c := NewL1(4*64, 64, 2)
	c.Touch(0)
	c.Touch(2)
	c.Touch(0) // line 0 is now MRU; line 2 is LRU
	_, victim, evicted := c.Touch(4)
	if !evicted || victim != 2 {
		t.Fatalf("evicted=%v victim=%d, want eviction of line 2", evicted, victim)
	}
	if c.Contains(2) {
		t.Fatal("victim still resident")
	}
	if !c.Contains(0) || !c.Contains(4) {
		t.Fatal("survivors missing")
	}
}

func TestInvalidate(t *testing.T) {
	c := NewL1(4096, 64, 4)
	c.Touch(3)
	c.Invalidate(3)
	if c.Contains(3) {
		t.Fatal("invalidate failed")
	}
	c.Invalidate(99) // absent line: no-op
}

func TestInvalidateAll(t *testing.T) {
	c := NewL1(4096, 64, 4)
	for i := uint64(0); i < 30; i++ {
		c.Touch(i)
	}
	c.InvalidateAll()
	for i := uint64(0); i < 30; i++ {
		if c.Contains(i) {
			t.Fatalf("line %d survived InvalidateAll", i)
		}
	}
}

func TestCapacityBound(t *testing.T) {
	// Property: a cache never holds more than sets*ways lines.
	if err := quick.Check(func(seed uint64) bool {
		c := NewL1(8*64, 64, 2) // 8 lines total
		for i := 0; i < 100; i++ {
			seed = seed*6364136223846793005 + 1
			c.Touch(seed % 64)
		}
		count := 0
		for l := uint64(0); l < 64; l++ {
			if c.Contains(l) {
				count++
			}
		}
		return count <= 8
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetConflictsEvenWhenCacheNotFull(t *testing.T) {
	// 4 sets × 2 ways. Lines 0,4,8 all map to set 0: the third must evict
	// even though the cache holds only 2 of 8 possible lines.
	c := NewL1(8*64, 64, 2)
	c.Touch(0)
	c.Touch(4)
	_, _, evicted := c.Touch(8)
	if !evicted {
		t.Fatal("expected set-conflict eviction")
	}
}

func TestDirectorySharers(t *testing.T) {
	d := NewDirectory()
	d.Add(5, 0)
	d.Add(5, 2)
	d.Add(5, 3)
	if !d.HeldBy(5, 0) || d.HeldBy(5, 1) {
		t.Fatal("HeldBy wrong")
	}
	others := d.Others(5, 2)
	if got := members(others); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("Others = %v, want [0 3]", got)
	}
	d.Remove(5, 0)
	d.Remove(5, 2)
	d.Remove(5, 3)
	if !d.Sharers(5).Empty() {
		t.Fatal("sharers not empty after removals")
	}
	d.ForEach(func(line uint64, _ ProcSet) {
		t.Fatalf("ForEach visited emptied line %d", line)
	})
}

// members lists s in ascending order through Next.
func members(s ProcSet) []int {
	var out []int
	for p := s.Next(0); p >= 0; p = s.Next(p + 1) {
		out = append(out, p)
	}
	return out
}

func TestProcSetNext(t *testing.T) {
	var s ProcSet
	if s.Next(0) != -1 {
		t.Fatal("empty set has a member")
	}
	want := []int{0, 1, 63, 64, 130, 255}
	for _, p := range want {
		s.Set(p)
	}
	got := members(s)
	if len(got) != len(want) {
		t.Fatalf("members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("members = %v, want %v", got, want)
		}
	}
	if s.Next(256) != -1 || s.Next(131) != 255 || s.Next(64) != 64 {
		t.Fatal("Next from an offset wrong")
	}
}

func TestDirectoryWordBoundaries(t *testing.T) {
	// Processors at both edges of a sharer word, on directories sized to
	// one word (64 procs) and to four (256).
	for _, procs := range []int{64, 256} {
		d := NewDirectoryFor(procs)
		ids := []int{0, 63}
		if procs > 64 {
			ids = append(ids, 64, 255)
		}
		const line = 1<<20 + 7 // far page: the page table grows to reach it
		for _, p := range ids {
			d.Add(line, p)
		}
		for _, p := range ids {
			if !d.HeldBy(line, p) {
				t.Fatalf("procs=%d: proc %d not a sharer", procs, p)
			}
			others := d.Others(line, p)
			if others.Has(p) || len(members(others)) != len(ids)-1 {
				t.Fatalf("procs=%d: Others(%d) = %v", procs, p, members(others))
			}
		}
		if d.HeldBy(line+1, 0) || d.HeldBy(line, 1) {
			t.Fatalf("procs=%d: phantom sharer", procs)
		}
		last := ids[len(ids)-1]
		if got := members(d.RemoveOthers(line, last)); len(got) != len(ids)-1 {
			t.Fatalf("procs=%d: RemoveOthers removed %v", procs, got)
		}
		if got := members(d.Sharers(line)); len(got) != 1 || got[0] != last {
			t.Fatalf("procs=%d: sharers after RemoveOthers = %v, want [%d]", procs, got, last)
		}
		d.Remove(line, last)
		d.ForEach(func(l uint64, s ProcSet) {
			t.Fatalf("procs=%d: ForEach visited line %d with %v", procs, l, members(s))
		})
	}
}

func TestDirectoryFill(t *testing.T) {
	d := NewDirectoryFor(4)
	if warm, shared := d.Fill(3, 1); warm || shared {
		t.Fatalf("first fill: warm=%v shared=%v, want cold and unshared", warm, shared)
	}
	if warm, shared := d.Fill(3, 2); !warm || !shared {
		t.Fatalf("second fill: warm=%v shared=%v, want warm and shared", warm, shared)
	}
	d.Remove(3, 1)
	d.Remove(3, 2)
	if warm, shared := d.Fill(3, 1); !warm || shared {
		t.Fatalf("refill: warm=%v shared=%v, want warm and unshared", warm, shared)
	}
	if warm, _ := d.Fill(4, 1); warm {
		t.Fatal("neighbouring line warm")
	}
}

func TestDirectorySizePanics(t *testing.T) {
	for _, procs := range []int{0, MaxProcs + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewDirectoryFor(%d): expected panic", procs)
				}
			}()
			NewDirectoryFor(procs)
		}()
	}
}

func TestDirectoryRemoveAbsent(t *testing.T) {
	d := NewDirectory()
	d.Remove(9, 1) // must not panic
	if !d.Sharers(9).Empty() {
		t.Fatal("phantom sharer")
	}
}

func TestDirectoryOthersEmpty(t *testing.T) {
	d := NewDirectory()
	d.Add(1, 4)
	if got := d.Others(1, 4); !got.Empty() {
		t.Fatalf("Others = %v, want none", members(got))
	}
}
