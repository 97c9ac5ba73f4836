package machine

import (
	"fmt"
	"strings"
)

// histBuckets covers footprints 1 .. 2^16 lines in power-of-two buckets.
const histBuckets = 17

// Hist is a power-of-two histogram of transaction footprints (distinct
// lines touched). Bucket i counts values in (2^(i-1), 2^i]; bucket 0
// counts zero-footprint (empty) transactions.
type Hist struct {
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// Add records one footprint.
func (h *Hist) Add(n int) {
	v := uint64(n)
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	b := 0
	for x := v; x > 0; x >>= 1 {
		b++
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.Buckets[b]++
}

// Mean returns the average footprint.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// FracAtMost returns the fraction of samples with footprint ≤ limit
// (computed from the bucket bounds, so it is conservative within a
// bucket).
func (h *Hist) FracAtMost(limit uint64) float64 {
	if h.Count == 0 {
		return 0
	}
	var n uint64
	bound := uint64(0)
	for i := 0; i < histBuckets; i++ {
		if bound > limit {
			break
		}
		n += h.Buckets[i]
		if bound == 0 {
			bound = 1
		} else {
			bound <<= 1
		}
	}
	return float64(n) / float64(h.Count)
}

// String renders the non-empty buckets.
func (h *Hist) String() string {
	if h.Count == 0 {
		return "(empty)"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d mean=%.1f max=%d [", h.Count, h.Mean(), h.Max)
	bound := uint64(0)
	first := true
	for i := 0; i < histBuckets; i++ {
		if h.Buckets[i] != 0 {
			if !first {
				sb.WriteString(" ")
			}
			first = false
			fmt.Fprintf(&sb, "≤%d:%d", bound, h.Buckets[i])
		}
		if bound == 0 {
			bound = 1
		} else {
			bound <<= 1
		}
	}
	sb.WriteString("]")
	return sb.String()
}

// RecordSWFootprint lets software TMs feed their committed transactions'
// footprints into the machine-wide histogram, which is shared state
// updated at this processor's (cycle, id) schedule slot.
func (p *Proc) RecordSWFootprint(lines int) {
	p.m.Count.SWFootprint.Add(lines)
}
