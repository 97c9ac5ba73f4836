package machine

import "repro/internal/cache"

// holderIndex is the machine-wide form of the SR/SW bits BTM keeps on
// its L1 lines (§3.1, Table 1): for each line, which processors' live
// hardware transactions hold it in their read set and which in their
// write set. A conflict check is one page lookup and a walk of the
// line's bits, like the coherence snoop of the one line being accessed.
//
// Holders are not sharers. A reader spared by the true-conflict limit
// study keeps its SR bit after set_ufo_bits takes its copy away, and
// the unbounded HTM keeps holding lines its L1 evicted, so the index is
// kept apart from the directory. Each line's record is width SR words
// then width SW words, one word per 64 processors. Only live
// transactions without a pending abort have bits: commit and kill clear
// them through the transaction's line list.
type holderIndex struct {
	t     cache.LineTable
	width int
}

func newHolderIndex(procs int) holderIndex {
	w := (procs + 63) / 64
	return holderIndex{t: cache.NewLineTable(0, 2*w), width: w}
}

// conflicts sets victims to the processors other than p whose
// transactions conflict with an access to line: its writers, and its
// readers too when write. It reports whether there is one. The set is
// filled in place rather than returned: the common no-conflict case then
// neither copies nor reads it back.
func (h *holderIndex) conflicts(line uint64, p int, write bool, victims *cache.ProcSet) (found bool) {
	pg := h.t.Page(line)
	if pg == nil {
		return false
	}
	rec := h.t.Record(pg, line)
	for i := 0; i < h.width; i++ {
		v := rec[h.width+i]
		if write {
			v |= rec[i]
		}
		if i == p/64 {
			v &^= 1 << (p % 64)
		}
		victims[i] = v
		if v != 0 {
			found = true
		}
	}
	return found
}

// has reports processor p's own SR and SW bits on line.
func (h *holderIndex) has(line uint64, p int) (read, write bool) {
	pg := h.t.Page(line)
	if pg == nil {
		return false, false
	}
	rec := h.t.Record(pg, line)
	i, bit := p/64, uint64(1)<<(p%64)
	return rec[i]&bit != 0, rec[h.width+i]&bit != 0
}

// mark sets p's SR bit on line, or its SW bit when write, and reports
// whether p held the line in neither set before.
func (h *holderIndex) mark(line uint64, p int, write bool) (first bool) {
	rec := h.t.Record(h.t.Alloc(line), line)
	i, bit := p/64, uint64(1)<<(p%64)
	first = (rec[i]|rec[h.width+i])&bit == 0
	if write {
		i += h.width
	}
	rec[i] |= bit
	return first
}

// drop clears both of p's bits on line and reports whether its SW bit
// was set.
func (h *holderIndex) drop(line uint64, p int) (wrote bool) {
	pg := h.t.Page(line)
	if pg == nil {
		return false
	}
	rec := h.t.Record(pg, line)
	i, bit := p/64, uint64(1)<<(p%64)
	wrote = rec[h.width+i]&bit != 0
	rec[i] &^= bit
	rec[h.width+i] &^= bit
	return wrote
}

// forEach visits every line some transaction holds, in ascending order,
// with the processors holding it in either set.
func (h *holderIndex) forEach(f func(line uint64, held cache.ProcSet)) {
	h.t.ForEach(func(line uint64, rec []uint64) {
		var held cache.ProcSet
		for i := 0; i < h.width; i++ {
			held[i] = rec[i] | rec[h.width+i]
		}
		f(line, held)
	})
}
