package check_test

import (
	"strings"
	"testing"

	"tracecache/internal/check"
	"tracecache/internal/core"
	"tracecache/internal/isa"
	"tracecache/internal/program"
	"tracecache/internal/stats"
)

// testProgram builds a tiny program with a known image: a counted loop
// followed by a halt.
func testProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("check-test")
	b.Here("main")
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 1, Imm: 10})
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 2, Imm: 0})
	b.Here("loop")
	b.Emit(isa.Inst{Op: isa.OpAdd, Rd: 2, Rs1: 2, Rs2: 1})
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

func testChecker(t *testing.T, fill core.FillConfig) *check.Checker {
	t.Helper()
	return check.New(check.Params{
		Prog:       testProgram(t),
		Fill:       fill,
		HasTC:      true,
		FetchWidth: 16,
		MaxSlots:   3,
		ConfigHash: "testhash",
	})
}

// seg builds a segment from consecutive instructions of the program
// image, starting at start.
func seg(p *program.Program, start, n int, reason core.FinalizeReason) *core.Segment {
	s := &core.Segment{Start: start, Reason: reason}
	for pc := start; pc < start+n; pc++ {
		s.Insts = append(s.Insts, core.SegInst{PC: pc, Inst: p.Code[pc]})
	}
	return s
}

func TestViolationString(t *testing.T) {
	v := check.Violation{
		Layer: check.LayerLockstep, Rule: "lockstep/pc",
		Cycle: 7, Seq: 3, PC: 42, Detail: "boom",
	}
	s := v.String()
	for _, want := range []string{"lockstep", "lockstep/pc", "42", "boom"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestOnSegmentCleanAccepted(t *testing.T) {
	c := testChecker(t, core.DefaultFillConfig(core.PackAtomic, 0))
	p := testProgram(t)
	// Instructions 0..3 are straight-line (the branch at 4 would end the
	// path); a genuine atomic segment.
	c.OnSegment(seg(p, 0, 4, core.FinalAtomic))
	if c.Total() != 0 {
		t.Fatalf("clean segment rejected:\n%s", c.Report())
	}
}

func TestOnSegmentViolations(t *testing.T) {
	p := testProgram(t)
	cases := []struct {
		name string
		fill core.FillConfig
		seg  func() *core.Segment
		rule string
	}{
		{"empty", core.DefaultFillConfig(core.PackAtomic, 0),
			func() *core.Segment { return &core.Segment{} },
			"structural/segment-size"},
		{"oversize", core.FillConfig{MaxInsts: 2, MaxBranches: 3},
			func() *core.Segment { return seg(p, 0, 4, core.FinalAtomic) },
			"structural/segment-size"},
		{"wrong start", core.DefaultFillConfig(core.PackAtomic, 0),
			func() *core.Segment {
				s := seg(p, 0, 3, core.FinalAtomic)
				s.Start = 1
				return s
			},
			"structural/segment-start"},
		{"image mismatch", core.DefaultFillConfig(core.PackAtomic, 0),
			func() *core.Segment {
				s := seg(p, 0, 3, core.FinalAtomic)
				s.Insts[1].Inst = isa.Inst{Op: isa.OpSub, Rd: 9}
				return s
			},
			"structural/segment-image"},
		{"outside image", core.DefaultFillConfig(core.PackAtomic, 0),
			func() *core.Segment {
				s := seg(p, 0, 3, core.FinalAtomic)
				s.Insts[2].PC = len(p.Code) + 5
				return s
			},
			"structural/segment-image"},
		{"promoted non-branch", core.DefaultFillConfig(core.PackAtomic, 64),
			func() *core.Segment {
				s := seg(p, 0, 3, core.FinalAtomic)
				s.Insts[0].Promoted = true
				return s
			},
			"structural/promoted-not-branch"},
		{"promotion disabled", core.DefaultFillConfig(core.PackAtomic, 0),
			func() *core.Segment {
				s := seg(p, 2, 3, core.FinalAtomic)
				s.Insts[2].Promoted = true // the loop branch at pc 4
				s.Insts[2].Taken = true
				return s
			},
			"structural/promotion-disabled"},
		{"path discontinuity", core.DefaultFillConfig(core.PackAtomic, 0),
			func() *core.Segment {
				s := seg(p, 0, 3, core.FinalAtomic)
				s.Insts[1].PC = 3 // 0 -> 3 skips pc 1
				s.Insts[1].Inst = p.Code[3]
				return s
			},
			"structural/path-continuity"},
		{"size reason without full segment", core.DefaultFillConfig(core.PackAtomic, 0),
			func() *core.Segment { return seg(p, 0, 3, core.FinalMaxSize) },
			"structural/finalize-reason"},
	}
	for _, tc := range cases {
		c := check.New(check.Params{
			Prog: p, Fill: tc.fill, HasTC: true, FetchWidth: 16,
			MaxSlots: 3, ConfigHash: "testhash",
		})
		c.OnSegment(tc.seg())
		if c.Total() == 0 {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		found := false
		for _, v := range c.Violations() {
			if v.Rule == tc.rule {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no %s violation in:\n%s", tc.name, tc.rule, c.Report())
		}
	}
}

func TestOnPackPerPolicy(t *testing.T) {
	p := testProgram(t)
	// Branch-free pending so the cost-regulated tight-loop trigger cannot
	// legitimately fire.
	pending := make([]core.SegInst, 12)
	for i := range pending {
		pending[i] = core.SegInst{PC: 0, Inst: p.Code[0]}
	}
	cases := []struct {
		name    string
		policy  core.PackPolicy
		space   int
		take    int
		block   int
		wantBad bool
	}{
		{"bounds: take exceeds space", core.PackUnregulated, 4, 5, 8, true},
		{"unregulated fills space", core.PackUnregulated, 4, 4, 8, false},
		{"unregulated leaves space", core.PackUnregulated, 4, 3, 8, true},
		{"atomic splits small block", core.PackAtomic, 4, 4, 8, true},
		{"atomic splits oversized block", core.PackAtomic, 4, 4, 20, false},
		{"chunk2 even take", core.PackChunk2, 5, 4, 8, false},
		{"chunk2 odd take", core.PackChunk2, 5, 3, 8, true},
		{"chunk4 rounds down", core.PackChunk4, 7, 4, 8, false},
		{"costreg without trigger", core.PackCostRegulated, 4, 4, 8, true},
	}
	for _, tc := range cases {
		fill := core.DefaultFillConfig(tc.policy, 0)
		c := check.New(check.Params{
			Prog: p, Fill: fill, HasTC: true, FetchWidth: 16,
			MaxSlots: 3, ConfigHash: "testhash",
		})
		c.OnPack(pending[:16-tc.space], tc.space, tc.take, tc.block)
		if bad := c.Total() > 0; bad != tc.wantBad {
			t.Errorf("%s: violations=%d, wantBad=%v:\n%s", tc.name, c.Total(), tc.wantBad, c.Report())
		}
	}
}

func TestOnPackCostRegTriggers(t *testing.T) {
	p := testProgram(t)
	fill := core.DefaultFillConfig(core.PackCostRegulated, 0)
	mk := func(n int) []core.SegInst {
		out := make([]core.SegInst, n)
		for i := range out {
			out[i] = core.SegInst{PC: 0, Inst: p.Code[0]}
		}
		return out
	}
	// Half-empty trigger at its boundary: 10 pending, 6 unused -> legal.
	c := testChecker(t, fill)
	c.OnPack(mk(10), 6, 6, 8)
	if c.Total() != 0 {
		t.Errorf("boundary pack rejected:\n%s", c.Report())
	}
	// 11 pending, 5 unused -> the trigger is off; packing violates.
	c = testChecker(t, fill)
	c.OnPack(mk(11), 5, 5, 8)
	if c.Total() == 0 {
		t.Error("pack beyond the half-empty boundary accepted")
	}
	// Tight backward branch overrides: pending holds the loop branch
	// (pc 4, target 2, displacement 2).
	withLoop := mk(11)
	withLoop[10] = core.SegInst{PC: 4, Inst: p.Code[4], Taken: true}
	c = testChecker(t, fill)
	c.OnPack(withLoop, 5, 5, 8)
	if c.Total() != 0 {
		t.Errorf("tight-loop pack rejected:\n%s", c.Report())
	}
}

func TestCommitLockstep(t *testing.T) {
	p := testProgram(t)
	c := check.New(check.Params{
		Prog: p, Fill: core.DefaultFillConfig(core.PackAtomic, 0),
		FetchWidth: 16, MaxSlots: 3, ConfigHash: "testhash",
	})
	// The first instruction: LoadI r1, 10 at the entry.
	c.Commit(check.Commit{PC: p.Entry, NextPC: p.Entry + 1, HasDest: true, DestReg: 1, DestVal: 10})
	if c.Total() != 0 {
		t.Fatalf("correct commit rejected:\n%s", c.Report())
	}
	// Wrong destination value on the second.
	c.Commit(check.Commit{PC: p.Entry + 1, NextPC: p.Entry + 2, HasDest: true, DestReg: 2, DestVal: 999})
	if c.Total() != 1 {
		t.Fatalf("wrong dest value not caught (total=%d)", c.Total())
	}
	if v := c.Violations()[0]; v.Rule != "lockstep/dest-value" || !strings.Contains(v.Detail, "testhash") {
		t.Errorf("violation = %+v, want lockstep/dest-value carrying the config hash", v)
	}
	// After divergence the comparison stops: garbage commits add nothing.
	c.Commit(check.Commit{PC: 12345})
	if c.Total() != 1 {
		t.Errorf("post-divergence commit recorded a violation")
	}
}

func TestCommitWrongPC(t *testing.T) {
	p := testProgram(t)
	c := check.New(check.Params{
		Prog: p, Fill: core.DefaultFillConfig(core.PackAtomic, 0),
		FetchWidth: 16, MaxSlots: 3, ConfigHash: "testhash",
	})
	c.Commit(check.Commit{PC: p.Entry + 3, NextPC: p.Entry + 4})
	if c.Total() != 1 || c.Violations()[0].Rule != "lockstep/pc" {
		t.Fatalf("wrong-pc commit not caught: %s", c.Report())
	}
}

func TestFastForwardMirrorsSimulator(t *testing.T) {
	p := testProgram(t)
	c := check.New(check.Params{
		Prog: p, Fill: core.DefaultFillConfig(core.PackAtomic, 0),
		FetchWidth: 16, MaxSlots: 3, ConfigHash: "testhash",
	})
	// Two steps from the entry: LoadI, LoadI -> pc Entry+2.
	c.FastForward(2, p.Entry+2)
	if c.Total() != 0 {
		t.Fatalf("matching fast-forward flagged:\n%s", c.Report())
	}
	c2 := check.New(check.Params{
		Prog: p, Fill: core.DefaultFillConfig(core.PackAtomic, 0),
		FetchWidth: 16, MaxSlots: 3, ConfigHash: "testhash",
	})
	c2.FastForward(2, p.Entry) // simulator claims a different resume PC
	if c2.Total() != 1 || c2.Violations()[0].Rule != "lockstep/ffwd-pc" {
		t.Fatalf("fast-forward mismatch not caught: %s", c2.Report())
	}
}

func TestFinalizeConservation(t *testing.T) {
	p := testProgram(t)
	mk := func() *check.Checker {
		return check.New(check.Params{
			Prog: p, Fill: core.DefaultFillConfig(core.PackAtomic, 0),
			HasTC: true, FetchWidth: 16, MaxSlots: 3, ConfigHash: "testhash",
		})
	}
	// Clean: zero commits, zero retired, consistent TC stats.
	c := mk()
	c.MarkMeasureStart(0)
	c.Finalize(check.Final{Run: &stats.Run{}})
	if c.Total() != 0 {
		t.Fatalf("clean finalize flagged:\n%s", c.Report())
	}

	// Retired count disagrees with observed commits.
	c = mk()
	c.MarkMeasureStart(0)
	c.Finalize(check.Final{Run: &stats.Run{Retired: 5}})
	if c.Total() == 0 || c.Violations()[0].Rule != "conservation/retired" {
		t.Errorf("retired mismatch not caught: %s", c.Report())
	}

	// Cycle buckets drift beyond the slack.
	c = mk()
	c.MarkMeasureStart(0)
	run := &stats.Run{Cycles: 100}
	run.Cycle[stats.CycleUseful] = 50
	c.Finalize(check.Final{Run: run})
	found := false
	for _, v := range c.Violations() {
		if v.Rule == "conservation/cycle-sum" {
			found = true
		}
	}
	if !found {
		t.Errorf("cycle-sum drift not caught: %s", c.Report())
	}

	// Trace-cache lookup count disagrees with the fetch stream.
	c = mk()
	c.MarkMeasureStart(0)
	c.Finalize(check.Final{
		Run:     &stats.Run{},
		TCStats: core.TraceCacheStats{Lookups: 9},
	})
	found = false
	for _, v := range c.Violations() {
		if v.Rule == "conservation/tc-lookups" {
			found = true
		}
	}
	if !found {
		t.Errorf("tc-lookups mismatch not caught: %s", c.Report())
	}

	// Promoted-branch census disagrees.
	c = mk()
	c.MarkMeasureStart(0)
	c.Finalize(check.Final{Run: &stats.Run{}, LivePromoted: 3, ResidentPromoted: 1})
	found = false
	for _, v := range c.Violations() {
		if v.Rule == "conservation/live-promoted" {
			found = true
		}
	}
	if !found {
		t.Errorf("live-promoted mismatch not caught: %s", c.Report())
	}
}

func TestViolationCapAndReport(t *testing.T) {
	c := testChecker(t, core.DefaultFillConfig(core.PackAtomic, 0))
	for i := 0; i < 80; i++ {
		c.OnSegment(&core.Segment{})
	}
	if c.Total() != 80 {
		t.Errorf("Total = %d, want 80", c.Total())
	}
	if len(c.Violations()) >= 80 {
		t.Errorf("violation recording not capped: %d", len(c.Violations()))
	}
	if r := c.Report(); !strings.Contains(r, "80 violation(s)") {
		t.Errorf("report does not carry the true count:\n%s", r)
	}
}

func TestApproximationsDocumented(t *testing.T) {
	for _, rule := range []string{"conservation/cycle-sum", "structural/costreg-trigger"} {
		if _, ok := check.Approximations[rule]; !ok {
			t.Errorf("approximation %s undocumented", rule)
		}
	}
}
