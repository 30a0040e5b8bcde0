package core

import (
	"slices"
	"strings"
	"testing"

	"tracecache/internal/isa"
)

func br(pc, target int, taken bool) SegInst {
	return SegInst{PC: pc, Inst: isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: target}, Taken: taken}
}

func alu(pc int) SegInst {
	return SegInst{PC: pc, Inst: isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 2}}
}

func TestSegInstNextPC(t *testing.T) {
	cases := []struct {
		si     SegInst
		want   int
		wantOK bool
	}{
		{alu(10), 11, true},
		{br(10, 50, true), 50, true},
		{br(10, 50, false), 11, true},
		{SegInst{PC: 10, Inst: isa.Inst{Op: isa.OpJmp, Target: 99}}, 99, true},
		{SegInst{PC: 10, Inst: isa.Inst{Op: isa.OpCall, Target: 7}}, 7, true},
		{SegInst{PC: 10, Inst: isa.Inst{Op: isa.OpRet}}, 0, false},
		{SegInst{PC: 10, Inst: isa.Inst{Op: isa.OpJmpInd}}, 0, false},
		{SegInst{PC: 10, Inst: isa.Inst{Op: isa.OpTrap}}, 0, false},
	}
	for _, c := range cases {
		got, ok := c.si.NextPC()
		if ok != c.wantOK || (ok && got != c.want) {
			t.Errorf("%v NextPC = (%d,%v), want (%d,%v)", c.si.Inst, got, ok, c.want, c.wantOK)
		}
	}
}

func TestSegmentCounters(t *testing.T) {
	p := br(5, 2, true)
	p.Promoted = true
	s := &Segment{Insts: []SegInst{alu(0), p, br(6, 0, false)}, branches: 1}
	if s.Len() != 3 || s.NumBranches() != 1 || s.NumPromoted() != 1 {
		t.Errorf("len=%d br=%d promo=%d", s.Len(), s.NumBranches(), s.NumPromoted())
	}
	if !s.ContainsPromoted(5) || s.ContainsPromoted(6) {
		t.Error("ContainsPromoted wrong")
	}
}

func TestSegmentString(t *testing.T) {
	p := br(5, 2, false)
	p.Promoted = true
	s := &Segment{Start: 4, Insts: []SegInst{alu(4), p}, branches: 0, Reason: FinalTerminator}
	str := s.String()
	for _, want := range []string{"segment@4", "(P:N)", "terminator"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() missing %q: %s", want, str)
		}
	}
}

func TestFinalizeReasonString(t *testing.T) {
	if FinalMaxSize.String() != "maxsize" || FinalizeReason(99).String() != "reason(99)" {
		t.Error("reason names wrong")
	}
}

func TestTraceCacheConfigValidate(t *testing.T) {
	if err := (TraceCacheConfig{Entries: 2048, Assoc: 4}).Validate(); err != nil {
		t.Errorf("paper config rejected: %v", err)
	}
	bad := []TraceCacheConfig{
		{},
		{Entries: 10, Assoc: 4},
		{Entries: 24, Assoc: 4}, // 6 sets, not a power of two
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config accepted: %+v", c)
		}
	}
}

func seg(start int, insts ...SegInst) *Segment {
	if len(insts) == 0 {
		insts = []SegInst{alu(start)}
	}
	return &Segment{Start: start, Insts: insts}
}

// sameSegment reports whether a cached segment holds exactly want's
// contents. The trace cache copies what Insert is given, so lookups are
// compared by content, never by pointer.
func sameSegment(got, want *Segment) bool {
	return got != nil && got.Start == want.Start && got.Reason == want.Reason &&
		got.branches == want.branches && slices.Equal(got.Insts, want.Insts)
}

func TestTraceCacheLookupInsert(t *testing.T) {
	tc := MustNewTraceCache(TraceCacheConfig{Entries: 16, Assoc: 2})
	if tc.Lookup(5) != nil {
		t.Error("cold lookup hit")
	}
	s := seg(5)
	tc.Insert(s)
	if got := tc.Lookup(5); !sameSegment(got, s) {
		t.Errorf("lookup after insert = %v, want %v", got, s)
	}
	st := tc.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Inserts != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTraceCacheNoPathAssociativity(t *testing.T) {
	tc := MustNewTraceCache(TraceCacheConfig{Entries: 16, Assoc: 2})
	s1 := seg(5, alu(5), br(6, 50, true))
	s2 := seg(5, alu(5), br(6, 50, false))
	tc.Insert(s1)
	tc.Insert(s2)
	if got := tc.Lookup(5); !sameSegment(got, s2) {
		t.Errorf("same-start insert must replace (no path associativity): got %v", got)
	}
	if tc.Stats().Overwrites != 1 {
		t.Errorf("overwrites = %d, want 1", tc.Stats().Overwrites)
	}
}

func TestTraceCacheLRUEviction(t *testing.T) {
	tc := MustNewTraceCache(TraceCacheConfig{Entries: 4, Assoc: 2}) // 2 sets
	// starts 0, 2, 4 map to set 0.
	a, b, c := seg(0), seg(2), seg(4)
	tc.Insert(a)
	tc.Insert(b)
	tc.Lookup(0) // refresh a
	tc.Insert(c) // evicts b
	if tc.Lookup(0) == nil {
		t.Error("MRU segment evicted")
	}
	if tc.Lookup(2) != nil {
		t.Error("LRU segment survived")
	}
	if tc.Lookup(4) == nil {
		t.Error("inserted segment missing")
	}
	if tc.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", tc.Stats().Evictions)
	}
}

func TestTraceCacheInvalidatePromoted(t *testing.T) {
	tc := MustNewTraceCache(TraceCacheConfig{Entries: 16, Assoc: 2})
	p := br(7, 2, true)
	p.Promoted = true
	with := seg(6, alu(6), p)
	without := seg(30, alu(30), br(31, 0, true))
	tc.Insert(with)
	tc.Insert(without)
	if n := tc.InvalidatePromoted(7); n != 1 {
		t.Errorf("invalidated %d, want 1", n)
	}
	if tc.Lookup(6) != nil {
		t.Error("segment with promoted branch survived")
	}
	if tc.Lookup(30) == nil {
		t.Error("unrelated segment invalidated")
	}
	if tc.Stats().Demotions != 1 {
		t.Errorf("demotions = %d", tc.Stats().Demotions)
	}
}

// TestTraceCacheInsertCopies: the cache keeps its own copy, so a caller
// that reuses or mutates the inserted segment (as the fill unit reuses
// its fill buffer) leaves the cached line unchanged.
func TestTraceCacheInsertCopies(t *testing.T) {
	tc := MustNewTraceCache(TraceCacheConfig{Entries: 16, Assoc: 2})
	s := seg(5, alu(5), br(6, 50, true))
	want := seg(5, alu(5), br(6, 50, true))
	tc.Insert(s)
	s.Insts[1].Taken = false
	s.Insts[0] = alu(99)
	s.Start, s.Reason = 7, FinalTerminator
	if got := tc.Lookup(5); !sameSegment(got, want) {
		t.Errorf("cached line changed with its source: got %v, want %v", got, want)
	}
	if tc.Lookup(7) != nil {
		t.Error("mutated start reached the cache")
	}
}

// TestTraceCacheReinsertLookedUp: re-inserting the segment Lookup
// returned (the line's own storage) refreshes the line in place and is
// not counted as an overwrite.
func TestTraceCacheReinsertLookedUp(t *testing.T) {
	tc := MustNewTraceCache(TraceCacheConfig{Entries: 16, Assoc: 2})
	want := seg(5, alu(5), br(6, 50, true))
	tc.Insert(want)
	tc.Insert(tc.Lookup(5))
	if got := tc.Lookup(5); !sameSegment(got, want) {
		t.Errorf("re-inserted line = %v, want %v", got, want)
	}
	if st := tc.Stats(); st.Inserts != 2 || st.Overwrites != 0 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 2 inserts, no overwrite or eviction", st)
	}
}

// TestTraceCacheInsertFullAllocFree: once every way holds a line sized
// from a fill-unit-capacity segment, inserting (evicting, overwriting)
// allocates nothing.
func TestTraceCacheInsertFullAllocFree(t *testing.T) {
	tc := MustNewTraceCache(TraceCacheConfig{Entries: 16, Assoc: 2})
	buf := make([]SegInst, 0, 16)
	s := &Segment{}
	fill := func(start, n int) {
		buf = buf[:0]
		for i := 0; i < n; i++ {
			buf = append(buf, alu(start+i))
		}
		s.Start, s.Insts = start, buf
	}
	for start := 0; start < 16; start++ {
		fill(start, 1)
		tc.Insert(s)
	}
	start := 16
	allocs := testing.AllocsPerRun(100, func() {
		fill(start, 1+start%16)
		tc.Insert(s)
		start++
	})
	if allocs != 0 {
		t.Errorf("Insert into a full cache: %v allocations, want 0", allocs)
	}
	if st := tc.Stats(); st.Evictions == 0 {
		t.Errorf("stats = %+v: inserts never evicted", st)
	}
}

func TestTraceCacheHitRate(t *testing.T) {
	var st TraceCacheStats
	if st.HitRate() != 0 {
		t.Error("empty hit rate")
	}
	st = TraceCacheStats{Lookups: 4, Hits: 3}
	if st.HitRate() != 0.75 {
		t.Errorf("hit rate = %v", st.HitRate())
	}
}

// MustNewTraceCache is a test helper for known-good configurations.
func MustNewTraceCache(cfg TraceCacheConfig) *TraceCache {
	tc, err := NewTraceCache(cfg)
	if err != nil {
		panic(err)
	}
	return tc
}

// TestNewTraceCacheRejectsBadGeometry pins the error path that replaced
// the panicking constructor: invalid geometries return errors.
func TestNewTraceCacheRejectsBadGeometry(t *testing.T) {
	for _, cfg := range []TraceCacheConfig{
		{},
		{Entries: 16},
		{Entries: 0, Assoc: 4},
		{Entries: 15, Assoc: 4},
		{Entries: 24, Assoc: 4}, // 6 sets: not a power of two
	} {
		if tc, err := NewTraceCache(cfg); err == nil || tc != nil {
			t.Errorf("NewTraceCache(%+v) = %v, %v; want nil, error", cfg, tc, err)
		}
	}
	if _, err := NewTraceCache(TraceCacheConfig{Entries: 2048, Assoc: 4}); err != nil {
		t.Errorf("paper geometry rejected: %v", err)
	}
}
