// Package core implements the paper's primary contribution: the trace
// cache, the fill unit that builds trace segments from the retired
// instruction stream, branch promotion driven by a branch bias table
// (Section 4), and trace packing with its regulation schemes (Section 5).
package core

// BiasTable detects strongly biased conditional branches (Figure 5). Each
// tagged entry records the previous outcome of a branch and the number of
// consecutive times that outcome has repeated, in a saturating counter.
// The fill unit promotes a branch whose consecutive-outcome count has
// reached the promotion threshold.
type BiasTable struct {
	entries  []biasEntry
	mask     uint32
	tagShift uint
	maxCount uint32
}

type biasEntry struct {
	tag   uint32
	count uint32
	dir   bool
	valid bool
}

// NewBiasTable builds a tagged bias table with size entries (a power of
// two; the paper uses 8K) whose consecutive-outcome counter saturates at
// maxCount.
func NewBiasTable(size int, maxCount uint32) *BiasTable { return RenewBiasTable(nil, size, maxCount) }

// RenewBiasTable is NewBiasTable built in old's entries when old has size
// entries, cleared to the empty entries a new table holds. old may be
// nil; a renewed old must not be used again.
func RenewBiasTable(old *BiasTable, size int, maxCount uint32) *BiasTable {
	b := &BiasTable{mask: uint32(size - 1), tagShift: log2(size), maxCount: maxCount}
	if old != nil && len(old.entries) == size {
		b.entries = old.entries
		clear(b.entries)
	} else {
		b.entries = make([]biasEntry, size)
	}
	return b
}

func log2(n int) uint {
	var b uint
	for 1<<b < n {
		b++
	}
	return b
}

// Update records a retired branch outcome. A tag mismatch replaces the
// entry (direct-mapped, tagged).
//
//tc:hotpath
func (b *BiasTable) Update(pc int, taken bool) {
	i := uint32(pc) & b.mask
	tag := uint32(pc) >> b.tagShift
	e := &b.entries[i]
	if !e.valid || e.tag != tag {
		*e = biasEntry{tag: tag, count: 1, dir: taken, valid: true}
		return
	}
	if e.dir == taken {
		if e.count < b.maxCount {
			e.count++
		}
		return
	}
	e.dir = taken
	e.count = 1
}

// Lookup returns the recorded direction and consecutive count for the
// branch, and whether the table holds an entry for it.
//
//tc:hotpath
func (b *BiasTable) Lookup(pc int) (dir bool, count uint32, ok bool) {
	i := uint32(pc) & b.mask
	tag := uint32(pc) >> b.tagShift
	e := b.entries[i]
	if !e.valid || e.tag != tag {
		return false, 0, false
	}
	return e.dir, e.count, true
}

// ShouldDemote implements the paper's demotion rule: a faulting promoted
// branch is demoted back to a normal branch if the bias table records two
// or more consecutive outcomes in the direction opposite the promoted one,
// or if the branch misses in the bias table. (A single opposite outcome —
// e.g. the final iteration of a loop — does not demote.)
//
//tc:hotpath
func (b *BiasTable) ShouldDemote(pc int, promotedDir bool) bool {
	dir, count, ok := b.Lookup(pc)
	if !ok {
		return true
	}
	return dir != promotedDir && count >= 2
}
