package core

import (
	"fmt"
	"strings"

	"tracecache/internal/isa"
)

// SegInst is one instruction within a trace segment. For conditional
// branches, Taken records the outcome embedded in the segment (the path
// the following instructions continue along), and Promoted marks branches
// the fill unit converted to static predictions.
type SegInst struct {
	PC       int
	Inst     isa.Inst
	Taken    bool
	Promoted bool
}

// NextPC returns the PC that follows this instruction along the segment's
// embedded path, and whether it is statically known (false for returns and
// indirect jumps, whose targets come from the RAS or indirect predictor).
func (si SegInst) NextPC() (int, bool) {
	switch {
	case si.Inst.Op == isa.OpBr:
		if si.Taken {
			return si.Inst.Target, true
		}
		return si.PC + 1, true
	case si.Inst.IsUncondDirect():
		return si.Inst.Target, true
	case si.Inst.TerminatesSegment():
		return 0, false
	default:
		return si.PC + 1, true
	}
}

// FinalizeReason records why the fill unit finalized a segment; the fetch
// engine uses it to classify fetch terminations (Figures 4 and 6).
type FinalizeReason uint8

// Finalize reasons.
const (
	FinalNone        FinalizeReason = iota
	FinalMaxSize                    // segment reached 16 instructions
	FinalMaxBranches                // segment reached 3 non-promoted branches
	FinalTerminator                 // return, indirect jump, or trap
	FinalAtomic                     // next block did not fit (atomic or regulated packing)
)

var finalNames = [...]string{"none", "maxsize", "maxbranches", "terminator", "atomic"}

// String names the reason.
func (r FinalizeReason) String() string {
	if int(r) < len(finalNames) {
		return finalNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Segment is one trace cache line: up to 16 instructions spanning up to
// three fetch blocks (delimited by non-promoted conditional branches), with
// embedded outcomes.
type Segment struct {
	Start    int
	Insts    []SegInst
	Reason   FinalizeReason
	branches int
}

// Len returns the number of instructions in the segment.
func (s *Segment) Len() int { return len(s.Insts) }

// NumBranches returns the number of non-promoted conditional branches.
func (s *Segment) NumBranches() int { return s.branches }

// PathSig returns the embedded outcomes of the segment's non-promoted
// conditional branches as a bit vector (bit i = i-th branch taken), used
// by path-associative lookup.
func (s *Segment) PathSig() (sig uint8, n int) {
	for _, si := range s.Insts {
		if si.Inst.IsCondBranch() && !si.Promoted {
			if si.Taken {
				sig |= 1 << uint(n)
			}
			n++
			if n == 8 {
				break
			}
		}
	}
	return sig, n
}

// NumPromoted returns the number of promoted branches in the segment.
func (s *Segment) NumPromoted() int {
	n := 0
	for _, si := range s.Insts {
		if si.Promoted {
			n++
		}
	}
	return n
}

// ContainsPromoted reports whether the segment holds a promoted branch at
// pc.
func (s *Segment) ContainsPromoted(pc int) bool {
	for _, si := range s.Insts {
		if si.Promoted && si.PC == pc {
			return true
		}
	}
	return false
}

// String renders the segment for diagnostics.
func (s *Segment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "segment@%d[%d insts, %d br, %s]:", s.Start, s.Len(), s.branches, s.Reason)
	for _, si := range s.Insts {
		tag := ""
		if si.Inst.IsCondBranch() {
			switch {
			case si.Promoted && si.Taken:
				tag = "(P:T)"
			case si.Promoted:
				tag = "(P:N)"
			case si.Taken:
				tag = "(T)"
			default:
				tag = "(N)"
			}
		}
		fmt.Fprintf(&b, " %d:%s%s", si.PC, si.Inst.Op, tag)
	}
	return b.String()
}

// TraceCacheConfig sets the geometry of the trace cache.
type TraceCacheConfig struct {
	Entries int // total lines (paper: 2048, ~128KB of instruction storage)
	Assoc   int // ways per set (paper: 4)
	// PathAssoc enables path associativity: segments with the same start
	// but different embedded paths may be resident simultaneously, and
	// lookup selects the way matching the predicted path. The paper's
	// machine does not use it (Section 3 points to [9] for analysis);
	// this is the ablation.
	PathAssoc bool
}

// Validate reports configuration errors.
func (c TraceCacheConfig) Validate() error {
	if c.Entries <= 0 || c.Assoc <= 0 || c.Entries%c.Assoc != 0 {
		return fmt.Errorf("trace cache: bad geometry %+v", c)
	}
	if s := c.Entries / c.Assoc; s&(s-1) != 0 {
		return fmt.Errorf("trace cache: sets %d not a power of two", s)
	}
	return nil
}

// TraceCacheStats counts trace cache activity.
type TraceCacheStats struct {
	Lookups    uint64
	Hits       uint64
	Inserts    uint64
	Overwrites uint64 // inserts that replaced a segment with the same start
	Evictions  uint64 // inserts that displaced a different segment
	Demotions  uint64 // lines invalidated by branch demotion
}

// HitRate returns hits per lookup.
func (s TraceCacheStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// tcWay is one trace cache line. It owns its segment: Insert copies the
// inserted segment into seg, whose instruction array is sized once, at
// the way's first fill, and reused by every later fill, like the paper's
// fixed-size line.
type tcWay struct {
	seg   Segment
	valid bool
	lru   uint64
	// sig/nsig cache seg.PathSig() under path associativity and promoted
	// caches seg.NumPromoted(): a resident segment is immutable (demotion
	// invalidates whole lines), so what Insert computes stays valid for
	// the line's lifetime.
	sig      uint8
	nsig     int
	promoted int
}

// fill copies seg into the way and stamps its cached summary. seg may be
// the way's own segment (a looked-up segment re-inserted), in which case
// the copy is a no-op.
//
//tc:hotpath
func (w *tcWay) fill(seg *Segment, lru uint64, sig uint8, nsig, promoted int) {
	n := len(seg.Insts)
	if cap(w.seg.Insts) < n {
		// First fill (or a segment longer than any this way held): size the
		// line from the segment's capacity, which the fill unit sets to its
		// MaxInsts, so no later fill reallocates.
		w.seg.Insts = make([]SegInst, n, cap(seg.Insts))
	}
	insts := w.seg.Insts[:n]
	copy(insts, seg.Insts)
	w.seg = *seg
	w.seg.Insts = insts
	w.valid = true
	w.lru = lru
	w.sig, w.nsig = sig, nsig
	w.promoted = promoted
}

// TraceCache stores trace segments indexed by starting fetch address. In
// the paper's configuration it is not path associative: only one segment
// starting at a given address is resident at a time (inserting a segment
// replaces any existing segment with the same start, per Section 3). With
// TraceCacheConfig.PathAssoc, distinct paths from the same start coexist
// and LookupPath selects among them.
type TraceCache struct {
	sets      [][]tcWay
	mask      uint32
	clock     uint64
	pathAssoc bool
	stats     TraceCacheStats
	// livePromoted tracks the promoted-branch instances embedded in
	// resident segments, maintained incrementally by Insert and
	// InvalidatePromoted. ResidentPromoted recounts it from scratch; the
	// self-check layer compares the two.
	livePromoted int
}

// NewTraceCache builds a trace cache.
func NewTraceCache(cfg TraceCacheConfig) (*TraceCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Entries / cfg.Assoc
	t := &TraceCache{mask: uint32(nsets - 1), pathAssoc: cfg.PathAssoc}
	backing := make([]tcWay, cfg.Entries)
	t.sets = make([][]tcWay, nsets)
	for i := range t.sets {
		t.sets[i], backing = backing[:cfg.Assoc], backing[cfg.Assoc:]
	}
	return t, nil
}

// Stats returns activity counters.
func (t *TraceCache) Stats() TraceCacheStats { return t.stats }

// LivePromoted returns the incrementally maintained count of promoted
// branch instances embedded in resident segments.
func (t *TraceCache) LivePromoted() int { return t.livePromoted }

// ResidentPromoted recounts the promoted branch instances embedded in
// resident segments by walking the whole cache. It exists for the
// self-check layer, which verifies it against LivePromoted.
func (t *TraceCache) ResidentPromoted() int {
	n := 0
	for _, set := range t.sets {
		for i := range set {
			if set[i].valid {
				n += set[i].seg.NumPromoted()
			}
		}
	}
	return n
}

// Lookup returns the segment starting at start, or nil on a miss. The
// segment is the line's own storage: it stays valid until the next Insert
// or InvalidatePromoted, either of which may overwrite the line, and the
// caller must not modify it.
func (t *TraceCache) Lookup(start int) *Segment {
	t.clock++
	t.stats.Lookups++
	set := t.sets[uint32(start)&t.mask]
	for i := range set {
		if set[i].valid && set[i].seg.Start == start {
			set[i].lru = t.clock
			t.stats.Hits++
			return &set[i].seg
		}
	}
	return nil
}

// Insert copies a segment into the cache; the caller keeps ownership of
// seg and may reuse it at once. Without path associativity any resident
// segment with the same start is replaced; with it, only a segment with
// the same start and the same embedded path is replaced. Otherwise the
// LRU way is evicted. Once every way has been filled, Insert allocates
// nothing.
//
//tc:hotpath
func (t *TraceCache) Insert(seg *Segment) {
	t.clock++
	t.stats.Inserts++
	set := t.sets[uint32(seg.Start)&t.mask]
	var sig uint8
	var nsig int
	if t.pathAssoc {
		// The signature is only consulted under path associativity; it is
		// computed once here and cached in the way for LookupPath.
		sig, nsig = seg.PathSig()
	}
	promoted := seg.NumPromoted()
	victim := 0
	for i := range set {
		w := &set[i]
		if w.valid && w.seg.Start == seg.Start {
			if t.pathAssoc && (w.sig != sig || w.nsig != nsig) {
				continue // a different path may stay resident
			}
			if seg != &w.seg {
				t.stats.Overwrites++
			}
			t.livePromoted += promoted - w.promoted
			w.fill(seg, t.clock, sig, nsig, promoted)
			return
		}
		if !w.valid {
			victim = i
		} else if set[victim].valid && w.lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		t.stats.Evictions++
		t.livePromoted -= set[victim].promoted
	}
	t.livePromoted += promoted
	set[victim].fill(seg, t.clock, sig, nsig, promoted)
}

// LookupPath returns the resident segment starting at start whose embedded
// path matches the longest prefix of the predicted path bits (bit i = i-th
// predicted branch outcome). Without path associativity at most one
// candidate exists and it is returned regardless of path. The segment's
// lifetime is Lookup's.
func (t *TraceCache) LookupPath(start int, path uint8) *Segment {
	t.clock++
	t.stats.Lookups++
	set := t.sets[uint32(start)&t.mask]
	best := -1
	bestLen := -1
	for i := range set {
		if !set[i].valid || set[i].seg.Start != start {
			continue
		}
		l := matchLen(set[i].sig, path, set[i].nsig)
		if l > bestLen || (l == bestLen && best >= 0 && set[i].lru > set[best].lru) {
			best, bestLen = i, l
		}
	}
	if best < 0 {
		return nil
	}
	set[best].lru = t.clock
	t.stats.Hits++
	return &set[best].seg
}

// matchLen counts how many leading branch outcomes of sig agree with path.
func matchLen(sig, path uint8, n int) int {
	l := 0
	for i := 0; i < n; i++ {
		if (sig>>uint(i))&1 != (path>>uint(i))&1 {
			break
		}
		l++
	}
	return l
}

// InvalidatePromoted removes every segment containing a promoted branch at
// pc, returning the number of lines invalidated. The simulator calls this
// when a faulting promoted branch is demoted so stale segments stop
// faulting. Lines that embed no promoted branch are skipped unscanned.
func (t *TraceCache) InvalidatePromoted(pc int) int {
	n := 0
	for _, set := range t.sets {
		for i := range set {
			w := &set[i]
			if w.valid && w.promoted > 0 && w.seg.ContainsPromoted(pc) {
				t.livePromoted -= w.promoted
				w.valid = false
				n++
			}
		}
	}
	t.stats.Demotions += uint64(n)
	return n
}
