package core

import (
	"testing"

	"tracecache/internal/isa"
	"tracecache/internal/program"
)

// biasedProg builds a loop with one heavily biased branch (taken ~97%) and
// one alternating branch.
func biasedProg(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("biased")
	b.Here("main")
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 1, Imm: 4000}) // loop counter
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 2, Imm: 0})    // iteration index
	b.Here("loop")
	// Biased branch: taken unless index % 32 == 0.
	b.Emit(isa.Inst{Op: isa.OpAndI, Rd: 3, Rs1: 2, Imm: 31})
	b.EmitTo(isa.Inst{Op: isa.OpBr, Cond: isa.CondNE, Rs1: 3, Rs2: 0}, "skip1")
	b.Emit(isa.Inst{Op: isa.OpAddI, Rd: 4, Rs1: 4, Imm: 1})
	b.Here("skip1")
	// Alternating branch: taken when index is even.
	b.Emit(isa.Inst{Op: isa.OpAndI, Rd: 5, Rs1: 2, Imm: 1})
	b.EmitTo(isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Rs1: 5, Rs2: 0}, "skip2")
	b.Emit(isa.Inst{Op: isa.OpAddI, Rd: 6, Rs1: 6, Imm: 1})
	b.Here("skip2")
	b.Emit(isa.Inst{Op: isa.OpAddI, Rd: 2, Rs1: 2, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpAddI, Rd: 1, Rs1: 1, Imm: -1})
	b.EmitTo(isa.Inst{Op: isa.OpBr, Cond: isa.CondGT, Rs1: 1, Rs2: 0}, "loop")
	b.Emit(isa.Inst{Op: isa.OpHalt})
	b.Entry("main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfileStaticPromotions(t *testing.T) {
	p := biasedProg(t)
	promos := ProfileStaticPromotions(p, StaticProfileConfig{
		Budget: 50_000, BiasThreshold: 0.9, MinExecutions: 100,
	})
	// The biased branch (pc 3) and the loop backedge should be annotated;
	// the alternating branch (pc 7) must not be.
	if dir, ok := promos[3]; !ok || !dir {
		t.Errorf("biased branch not annotated taken: %v", promos)
	}
	if _, ok := promos[7]; ok {
		t.Error("alternating branch annotated")
	}
	// Loop backedge at the br.gt: strongly taken.
	backedge := len(p.Code) - 2
	if dir, ok := promos[backedge]; !ok || !dir {
		t.Errorf("backedge not annotated: %v", promos)
	}
}

func TestProfileStaticPromotionsDefaults(t *testing.T) {
	p := biasedProg(t)
	promos := ProfileStaticPromotions(p, StaticProfileConfig{})
	if len(promos) == 0 {
		t.Error("default config found nothing")
	}
}

func TestProfileStaticPromotionsMinExecutions(t *testing.T) {
	p := biasedProg(t)
	promos := ProfileStaticPromotions(p, StaticProfileConfig{
		Budget: 50_000, BiasThreshold: 0.9, MinExecutions: 1 << 30,
	})
	if len(promos) != 0 {
		t.Errorf("cold branches annotated: %v", promos)
	}
}

func TestFillUnitStaticPromotion(t *testing.T) {
	cfg := DefaultFillConfig(PackAtomic, 0)
	cfg.StaticPromotions = map[int]bool{1: true}
	f := NewFillUnit(cfg, nil)
	if f.Bias() != nil {
		t.Error("static mode must not build a bias table")
	}
	var segs []*Segment
	f.OnSegment = func(s *Segment) { segs = append(segs, cloneSegment(s)) }
	// Annotated branch retiring in the annotated direction: promoted
	// immediately (no warm-up).
	f.Retire(0, isa.Inst{Op: isa.OpAdd}, false)
	f.Retire(1, isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: 0}, true)
	f.Retire(2, isa.Inst{Op: isa.OpRet}, false)
	if len(segs) != 1 || segs[0].NumPromoted() != 1 {
		t.Fatalf("segments = %v", segs)
	}
	// Retiring against the annotation: not promoted.
	segs = segs[:0]
	f.Retire(0, isa.Inst{Op: isa.OpAdd}, false)
	f.Retire(1, isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: 0}, false)
	f.Retire(2, isa.Inst{Op: isa.OpRet}, false)
	if len(segs) != 1 || segs[0].NumPromoted() != 0 {
		t.Fatalf("off-direction promoted: %v", segs)
	}
	// Unannotated branch: never promoted.
	segs = segs[:0]
	f.Retire(4, isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: 0}, true)
	f.Retire(5, isa.Inst{Op: isa.OpRet}, false)
	if segs[0].NumPromoted() != 0 {
		t.Error("unannotated branch promoted")
	}
}

func TestStaticPromotionOverridesThreshold(t *testing.T) {
	cfg := DefaultFillConfig(PackAtomic, 4)
	cfg.StaticPromotions = map[int]bool{}
	f := NewFillUnit(cfg, nil)
	var segs []*Segment
	f.OnSegment = func(s *Segment) { segs = append(segs, cloneSegment(s)) }
	// With an (empty) static table, dynamic promotion is off: repeated
	// outcomes never promote.
	for i := 0; i < 20; i++ {
		f.Retire(0, isa.Inst{Op: isa.OpAdd}, false)
		f.Retire(1, isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ, Target: 0}, true)
	}
	f.Retire(2, isa.Inst{Op: isa.OpRet}, false)
	for _, s := range segs {
		if s.NumPromoted() != 0 {
			t.Fatal("dynamic promotion active in static mode")
		}
	}
}
