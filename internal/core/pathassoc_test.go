package core

import (
	"testing"

	"tracecache/internal/isa"
)

// pathSeg builds a two-branch segment at start whose embedded outcomes are
// given by the two booleans.
func pathSeg(start int, b0, b1 bool) *Segment {
	return &Segment{Start: start, Insts: []SegInst{
		{PC: start, Inst: isa.Inst{Op: isa.OpAdd}},
		{PC: start + 1, Inst: isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: start + 10}, Taken: b0},
		{PC: pathNext(start+1, b0, start+10), Inst: isa.Inst{Op: isa.OpAdd}},
		{PC: pathNext(start+1, b0, start+10) + 1, Inst: isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: start + 20}, Taken: b1},
	}, branches: 2}
}

func pathNext(pc int, taken bool, target int) int {
	if taken {
		return target
	}
	return pc + 1
}

func TestPathSig(t *testing.T) {
	s := pathSeg(0, true, false)
	sig, n := s.PathSig()
	if n != 2 || sig != 0b01 {
		t.Errorf("sig = %b, n = %d", sig, n)
	}
	// Promoted branches are excluded from the signature.
	s.Insts[1].Promoted = true
	sig, n = s.PathSig()
	if n != 1 || sig != 0b0 {
		t.Errorf("promoted-adjusted sig = %b, n = %d", sig, n)
	}
}

func TestPathAssocInsertKeepsDistinctPaths(t *testing.T) {
	tc := MustNewTraceCache(TraceCacheConfig{Entries: 16, Assoc: 4, PathAssoc: true})
	a := pathSeg(5, true, true)
	b := pathSeg(5, false, true)
	tc.Insert(a)
	tc.Insert(b)
	// Both paths resident: select by predicted path.
	if got := tc.LookupPath(5, 0b11); !sameSegment(got, a) {
		t.Errorf("path 11 = %v", got)
	}
	if got := tc.LookupPath(5, 0b10); !sameSegment(got, b) {
		t.Errorf("path 10 = %v", got)
	}
	// Same start and same path replaces.
	a2 := pathSeg(5, true, true)
	a2.Reason = FinalMaxBranches
	tc.Insert(a2)
	if got := tc.LookupPath(5, 0b11); !sameSegment(got, a2) {
		t.Errorf("same-path insert did not replace: got %v", got)
	}
	if tc.Stats().Overwrites != 1 {
		t.Errorf("overwrites = %d", tc.Stats().Overwrites)
	}
}

func TestNonPathAssocReplacesRegardlessOfPath(t *testing.T) {
	tc := MustNewTraceCache(TraceCacheConfig{Entries: 16, Assoc: 4})
	a := pathSeg(5, true, true)
	b := pathSeg(5, false, true)
	tc.Insert(a)
	tc.Insert(b)
	if got := tc.Lookup(5); !sameSegment(got, b) {
		t.Errorf("non-path-assoc must keep one segment per start: got %v", got)
	}
}

func TestLookupPathPrefixMatch(t *testing.T) {
	tc := MustNewTraceCache(TraceCacheConfig{Entries: 16, Assoc: 4, PathAssoc: true})
	a := pathSeg(5, true, true)
	b := pathSeg(5, false, false)
	tc.Insert(a)
	tc.Insert(b)
	// Predicted path 01: first branch taken (matches a's first bit),
	// second not-taken: a matches 1 leading bit, b matches 0.
	if got := tc.LookupPath(5, 0b01); !sameSegment(got, a) {
		t.Errorf("longest-prefix selection failed: got %v", got)
	}
	if tc.LookupPath(99, 0) != nil {
		t.Error("miss returned a segment")
	}
}

func TestMatchLen(t *testing.T) {
	cases := []struct {
		sig, path uint8
		n, want   int
	}{
		{0b11, 0b11, 2, 2},
		{0b11, 0b01, 2, 1},
		{0b11, 0b10, 2, 0},
		{0b0, 0b0, 0, 0},
		{0b101, 0b101, 3, 3},
	}
	for _, c := range cases {
		if got := matchLen(c.sig, c.path, c.n); got != c.want {
			t.Errorf("matchLen(%b,%b,%d) = %d, want %d", c.sig, c.path, c.n, got, c.want)
		}
	}
}
