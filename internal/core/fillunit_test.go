package core

import (
	"slices"
	"testing"
	"testing/quick"

	"tracecache/internal/isa"
)

// cloneSegment copies a segment handed to OnSegment, which is a view of the
// fill buffer valid only during the callback, so a collector can keep it.
func cloneSegment(s *Segment) *Segment {
	c := *s
	c.Insts = slices.Clone(s.Insts)
	return &c
}

// feeder drives a fill unit with synthetic retired blocks and collects the
// segments it builds.
type feeder struct {
	f    *FillUnit
	segs []*Segment
	pc   int
}

func newFeeder(cfg FillConfig) *feeder {
	fd := &feeder{f: NewFillUnit(cfg, nil)}
	fd.f.OnSegment = func(s *Segment) { fd.segs = append(fd.segs, cloneSegment(s)) }
	return fd
}

// block retires n-1 ALU instructions followed by a conditional branch
// whose target is far forward (so it never looks like a tight loop).
func (fd *feeder) block(n int, taken bool) {
	for i := 0; i < n-1; i++ {
		fd.f.Retire(fd.pc, isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 2}, false)
		fd.pc++
	}
	fd.f.Retire(fd.pc, isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: fd.pc + 1000}, taken)
	fd.pc++
}

// run retires n ALU instructions ending with op.
func (fd *feeder) run(n int, op isa.Op) {
	for i := 0; i < n-1; i++ {
		fd.f.Retire(fd.pc, isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 2}, false)
		fd.pc++
	}
	fd.f.Retire(fd.pc, isa.Inst{Op: op, Target: 0}, false)
	fd.pc++
}

func TestFillAtomicThreeBranchLimit(t *testing.T) {
	fd := newFeeder(DefaultFillConfig(PackAtomic, 0))
	fd.block(4, true)
	fd.block(4, false)
	fd.block(4, true) // third branch finalizes
	if len(fd.segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(fd.segs))
	}
	s := fd.segs[0]
	if s.Len() != 12 || s.NumBranches() != 3 || s.Reason != FinalMaxBranches {
		t.Errorf("segment = %v", s)
	}
}

func TestFillAtomicBlockDoesNotFit(t *testing.T) {
	fd := newFeeder(DefaultFillConfig(PackAtomic, 0))
	fd.block(13, true)
	fd.block(9, true) // 9 > 3 remaining: atomic finalize at 13
	if len(fd.segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(fd.segs))
	}
	if fd.segs[0].Len() != 13 || fd.segs[0].Reason != FinalAtomic {
		t.Errorf("segment = %v", fd.segs[0])
	}
	if fd.f.Pending() != 9 {
		t.Errorf("pending = %d, want 9", fd.f.Pending())
	}
}

func TestFillMaxSizeExactFit(t *testing.T) {
	fd := newFeeder(DefaultFillConfig(PackAtomic, 0))
	fd.block(8, true)
	fd.block(8, false)
	if len(fd.segs) != 1 || fd.segs[0].Len() != 16 || fd.segs[0].Reason != FinalMaxSize {
		t.Fatalf("segments = %v", fd.segs)
	}
}

func TestFillTerminator(t *testing.T) {
	for _, op := range []isa.Op{isa.OpRet, isa.OpJmpInd, isa.OpTrap, isa.OpHalt} {
		fd := newFeeder(DefaultFillConfig(PackAtomic, 0))
		fd.run(5, op)
		if len(fd.segs) != 1 || fd.segs[0].Reason != FinalTerminator {
			t.Errorf("%v: segments = %v", op, fd.segs)
		}
	}
}

func TestFillCallDoesNotTerminate(t *testing.T) {
	fd := newFeeder(DefaultFillConfig(PackAtomic, 0))
	fd.run(4, isa.OpCall)
	if len(fd.segs) != 0 {
		t.Fatalf("call terminated segment: %v", fd.segs)
	}
	if fd.f.Pending() != 4 {
		t.Errorf("pending = %d", fd.f.Pending())
	}
	fd.run(4, isa.OpJmp)
	if len(fd.segs) != 0 {
		t.Fatalf("jmp terminated segment")
	}
}

func TestFillUnregulatedPackingSplits(t *testing.T) {
	fd := newFeeder(DefaultFillConfig(PackUnregulated, 0))
	fd.block(13, true)
	fd.block(9, true) // 3 packed into first segment; 6 start the next
	if len(fd.segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(fd.segs))
	}
	s := fd.segs[0]
	if s.Len() != 16 || s.Reason != FinalMaxSize {
		t.Errorf("segment = %v", s)
	}
	// Packed fragment contains no branch.
	if s.NumBranches() != 1 {
		t.Errorf("branches = %d, want 1", s.NumBranches())
	}
	if fd.f.Pending() != 6 {
		t.Errorf("pending remainder = %d, want 6", fd.f.Pending())
	}
	if fd.f.Stats().Splits != 1 {
		t.Errorf("splits = %d", fd.f.Stats().Splits)
	}
}

func TestFillChunk2PacksEvenCounts(t *testing.T) {
	fd := newFeeder(DefaultFillConfig(PackChunk2, 0))
	fd.block(13, true)
	fd.block(9, true) // space 3 -> pack 2, finalize at 15 (FinalAtomic)
	if len(fd.segs) != 1 {
		t.Fatalf("segments = %d", len(fd.segs))
	}
	if fd.segs[0].Len() != 15 || fd.segs[0].Reason != FinalAtomic {
		t.Errorf("segment = %v", fd.segs[0])
	}
	if fd.f.Pending() != 7 {
		t.Errorf("pending = %d, want 7", fd.f.Pending())
	}
}

func TestFillChunk4RefusesSmallSpace(t *testing.T) {
	fd := newFeeder(DefaultFillConfig(PackChunk4, 0))
	fd.block(13, true)
	fd.block(9, true) // space 3 -> pack 0 -> atomic finalize at 13
	if len(fd.segs) != 1 {
		t.Fatalf("segments = %d", len(fd.segs))
	}
	if fd.segs[0].Len() != 13 || fd.segs[0].Reason != FinalAtomic {
		t.Errorf("segment = %v", fd.segs[0])
	}
	if fd.f.Pending() != 9 {
		t.Errorf("pending = %d", fd.f.Pending())
	}
}

func TestFillCostRegulatedPacksWhenHalfEmpty(t *testing.T) {
	fd := newFeeder(DefaultFillConfig(PackCostRegulated, 0))
	fd.block(10, true) // pending 10, unused 6 >= 5: packing allowed
	fd.block(9, true)
	if len(fd.segs) != 1 || fd.segs[0].Len() != 16 {
		t.Fatalf("segments = %v", fd.segs)
	}
	if fd.f.Pending() != 3 {
		t.Errorf("pending = %d, want 3", fd.f.Pending())
	}
}

func TestFillCostRegulatedRefusesWhenNearlyFull(t *testing.T) {
	fd := newFeeder(DefaultFillConfig(PackCostRegulated, 0))
	fd.block(13, true) // pending 13, unused 3 < 6.5: refuse (no tight loop)
	fd.block(9, true)
	if len(fd.segs) != 1 || fd.segs[0].Len() != 13 || fd.segs[0].Reason != FinalAtomic {
		t.Fatalf("segments = %v", fd.segs)
	}
}

func TestFillCostRegulatedTightLoopOverride(t *testing.T) {
	cfg := DefaultFillConfig(PackCostRegulated, 0)
	f := NewFillUnit(cfg, nil)
	var segs []*Segment
	f.OnSegment = func(s *Segment) { segs = append(segs, cloneSegment(s)) }
	// A 13-instruction block ending in a short backward branch (tight
	// loop): packing proceeds despite the nearly-full segment.
	pc := 100
	for i := 0; i < 12; i++ {
		f.Retire(pc, isa.Inst{Op: isa.OpAdd}, false)
		pc++
	}
	f.Retire(pc, isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: 100}, true)
	// Next block of 9 does not fit; tight loop allows packing.
	for i := 0; i < 8; i++ {
		f.Retire(100+i, isa.Inst{Op: isa.OpAdd}, false)
	}
	f.Retire(108, isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: 100}, true)
	if len(segs) != 1 || segs[0].Len() != 16 || segs[0].Reason != FinalMaxSize {
		t.Fatalf("segments = %v", segs)
	}
}

func TestFillOversizedBlockSplitsEvenAtomic(t *testing.T) {
	fd := newFeeder(DefaultFillConfig(PackAtomic, 0))
	fd.block(40, true)
	// 40-instruction block: two full segments and an 8-instruction pending.
	if len(fd.segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(fd.segs))
	}
	for _, s := range fd.segs {
		if s.Len() != 16 || s.Reason != FinalMaxSize {
			t.Errorf("segment = %v", s)
		}
	}
	if fd.f.Pending() != 8 {
		t.Errorf("pending = %d, want 8", fd.f.Pending())
	}
}

func TestFillPromotionEmbedsStaticPrediction(t *testing.T) {
	cfg := DefaultFillConfig(PackAtomic, 4)
	f := NewFillUnit(cfg, nil)
	var segs []*Segment
	f.OnSegment = func(s *Segment) { segs = append(segs, cloneSegment(s)) }
	// Retire the same taken branch enough times to cross the threshold.
	retireBlock := func() {
		f.Retire(0, isa.Inst{Op: isa.OpAdd}, false)
		f.Retire(1, isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: 0}, true)
	}
	for i := 0; i < 3; i++ {
		retireBlock()
	}
	// Not yet promoted: 3 branches finalize a segment.
	if len(segs) != 1 || segs[0].NumPromoted() != 0 {
		t.Fatalf("premature promotion: %v", segs)
	}
	// The 4th..th outcomes promote.
	for i := 0; i < 8; i++ {
		retireBlock()
	}
	last := segs[len(segs)-1]
	if last.NumPromoted() == 0 {
		t.Errorf("no promotion after threshold: %v", last)
	}
	for _, si := range last.Insts {
		if si.Promoted && (!si.Taken || si.Inst.Op != isa.OpBr) {
			t.Errorf("promoted inst wrong: %+v", si)
		}
	}
	if f.Stats().Promotions == 0 {
		t.Error("promotion stats not counted")
	}
}

func TestFillPromotedBranchesDoNotCountTowardLimit(t *testing.T) {
	cfg := DefaultFillConfig(PackAtomic, 2)
	f := NewFillUnit(cfg, nil)
	var segs []*Segment
	f.OnSegment = func(s *Segment) { segs = append(segs, cloneSegment(s)) }
	// Warm the bias table so branch 1 promotes, then flush pending state.
	for i := 0; i < 4; i++ {
		f.Retire(0, isa.Inst{Op: isa.OpAdd}, false)
		f.Retire(1, isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: 0}, true)
	}
	f.Retire(2, isa.Inst{Op: isa.OpRet}, false)
	segs = segs[:0]
	// Now a run: promoted branch repeated 5 times then a terminator. A
	// non-promoted branch would finalize after 3; promoted ones must not.
	for i := 0; i < 5; i++ {
		f.Retire(0, isa.Inst{Op: isa.OpAdd}, false)
		f.Retire(1, isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: 0}, true)
	}
	f.Retire(2, isa.Inst{Op: isa.OpRet}, false)
	if len(segs) != 1 {
		t.Fatalf("segments = %d, want 1 (promoted branches must not finalize)", len(segs))
	}
	if segs[0].Len() != 11 || segs[0].NumPromoted() != 5 || segs[0].NumBranches() != 0 {
		t.Errorf("segment = %v", segs[0])
	}
}

func TestFillWritesToTraceCache(t *testing.T) {
	tc := MustNewTraceCache(TraceCacheConfig{Entries: 64, Assoc: 4})
	f := NewFillUnit(DefaultFillConfig(PackAtomic, 0), tc)
	f.Retire(10, isa.Inst{Op: isa.OpAdd}, false)
	f.Retire(11, isa.Inst{Op: isa.OpRet}, false)
	if s := tc.Lookup(10); s == nil || s.Len() != 2 {
		t.Errorf("segment not written: %v", s)
	}
}

func TestFillStatsAverages(t *testing.T) {
	var st FillStats
	if st.AvgSegmentLen() != 0 {
		t.Error("empty average")
	}
	fd := newFeeder(DefaultFillConfig(PackAtomic, 0))
	fd.run(4, isa.OpRet)
	fd.run(8, isa.OpRet)
	st = fd.f.Stats()
	if st.AvgSegmentLen() != 6 {
		t.Errorf("avg = %v, want 6", st.AvgSegmentLen())
	}
	if st.Retired != 12 || st.Segments != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFillDefaultsApplied(t *testing.T) {
	f := NewFillUnit(FillConfig{PromoteThreshold: 8}, nil)
	cfg := f.Config()
	if cfg.MaxInsts != 16 || cfg.MaxBranches != 3 || cfg.BiasMaxCount != 1023 {
		t.Errorf("defaults = %+v", cfg)
	}
	if f.Bias() == nil {
		t.Error("bias table missing with promotion enabled")
	}
	f2 := NewFillUnit(FillConfig{}, nil)
	if f2.Bias() != nil {
		t.Error("bias table created with promotion disabled")
	}
}

// Property: under any policy, every built segment obeys the structural
// invariants: 1..16 instructions, at most 3 non-promoted branches,
// terminator only at the end, and consecutive instructions linked by the
// embedded path.
func TestFillSegmentInvariantsProperty(t *testing.T) {
	policies := []PackPolicy{PackAtomic, PackUnregulated, PackChunk2, PackChunk4, PackCostRegulated}
	f := func(sizes []uint8, seed int64) bool {
		for _, pol := range policies {
			cfg := DefaultFillConfig(pol, 3)
			fu := NewFillUnit(cfg, nil)
			ok := true
			fu.OnSegment = func(s *Segment) {
				if s.Len() < 1 || s.Len() > 16 || s.NumBranches() > 3 {
					ok = false
				}
				for i, si := range s.Insts {
					if si.Inst.TerminatesSegment() && i != s.Len()-1 {
						ok = false
					}
					if i+1 < s.Len() {
						next, known := si.NextPC()
						if !known || next != s.Insts[i+1].PC {
							ok = false
						}
					}
				}
			}
			pc := 0
			rnd := seed
			next := func() int64 {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				return rnd >> 33
			}
			for _, raw := range sizes {
				n := int(raw%20) + 1
				for i := 0; i < n-1; i++ {
					fu.Retire(pc, isa.Inst{Op: isa.OpAdd}, false)
					pc++
				}
				switch next() % 4 {
				case 0:
					fu.Retire(pc, isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: pc + 1}, next()%2 == 0)
					pc++
				case 1:
					fu.Retire(pc, isa.Inst{Op: isa.OpJmp, Target: pc + 1}, false)
					pc++
				case 2:
					fu.Retire(pc, isa.Inst{Op: isa.OpRet}, false)
					pc++
				default:
					fu.Retire(pc, isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: pc + 1}, false)
					pc++
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPackPolicyString(t *testing.T) {
	if PackAtomic.String() != "atomic" || PackCostRegulated.String() != "costreg" {
		t.Error("policy names wrong")
	}
	if PackPolicy(99).String() != "pack(99)" {
		t.Error("unknown policy name wrong")
	}
}

// TestFillCostRegulatedPendingLengthBoundary pins the implemented
// half-empty trigger, unused*2 >= len(pending): with 16-instruction
// segments, 10 pending instructions still pack (6 unused, 12 >= 10) while
// 11 do not (5 unused, 10 < 11). A capacity-halves reading (pack iff at
// most 8 pending) would fail both cases.
func TestFillCostRegulatedPendingLengthBoundary(t *testing.T) {
	cases := []struct {
		pending   int
		wantSplit bool
	}{
		{8, true},  // exactly half the capacity: both readings pack
		{10, true}, // boundary of the implemented rule: 12 >= 10
		{11, false},
		{14, false},
	}
	for _, tc := range cases {
		fd := newFeeder(DefaultFillConfig(PackCostRegulated, 0))
		fd.block(tc.pending, true)
		// The follow-on block must exceed the free space so a packing
		// decision happens at all.
		fd.block(17-tc.pending, true)
		splits := fd.f.Stats().Splits
		if tc.wantSplit && (splits != 1 || len(fd.segs) != 1 || fd.segs[0].Len() != 16) {
			t.Errorf("pending=%d: splits=%d segs=%d, want a packed max-size segment",
				tc.pending, splits, len(fd.segs))
		}
		if !tc.wantSplit && (splits != 0 || len(fd.segs) != 1 || fd.segs[0].Len() != tc.pending) {
			t.Errorf("pending=%d: splits=%d segs=%d, want an unpacked atomic segment",
				tc.pending, splits, len(fd.segs))
		}
		if !tc.wantSplit && fd.segs[0].Reason != FinalAtomic {
			t.Errorf("pending=%d: reason = %v, want FinalAtomic", tc.pending, fd.segs[0].Reason)
		}
	}
}

// TestFillCostRegulatedTightLoopDisplacementBoundary pins the second
// trigger's displacement cutoff: a backward branch exactly
// TightLoopDisplacement instructions back forces packing even when the
// segment is nearly full; one instruction further does not.
func TestFillCostRegulatedTightLoopDisplacementBoundary(t *testing.T) {
	for _, tc := range []struct {
		disp      int
		wantSplit bool
	}{
		{TightLoopDisplacement, true},
		{TightLoopDisplacement + 1, false},
	} {
		cfg := DefaultFillConfig(PackCostRegulated, 0)
		f := NewFillUnit(cfg, nil)
		var segs []*Segment
		f.OnSegment = func(s *Segment) { segs = append(segs, cloneSegment(s)) }
		pc := 1000
		// 12 pending instructions (5 unused, 10 < 12: half-empty trigger
		// off) ending in a backward branch of the given displacement.
		for i := 0; i < 11; i++ {
			f.Retire(pc, isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 2}, false)
			pc++
		}
		f.Retire(pc, isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: pc - tc.disp}, true)
		pc++
		// An 8-instruction block that does not fit in the 4 free slots.
		for i := 0; i < 7; i++ {
			f.Retire(pc, isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 1, Rs2: 2}, false)
			pc++
		}
		f.Retire(pc, isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: pc + 1000}, false)
		splits := f.Stats().Splits
		if tc.wantSplit && (splits != 1 || len(segs) != 1 || segs[0].Len() != 16) {
			t.Errorf("disp=%d: splits=%d segs=%d, want tight-loop packing", tc.disp, splits, len(segs))
		}
		if !tc.wantSplit && (splits != 0 || len(segs) != 1 || segs[0].Len() != 12) {
			t.Errorf("disp=%d: splits=%d segs=%d, want no packing", tc.disp, splits, len(segs))
		}
	}
}
