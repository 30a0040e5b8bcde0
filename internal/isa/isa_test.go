package isa

import (
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpNop: "nop", OpAdd: "add", OpLoad: "ld", OpStore: "st",
		OpBr: "br", OpJmp: "jmp", OpCall: "call", OpRet: "ret",
		OpJmpInd: "jr", OpTrap: "trap", OpHalt: "halt",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Errorf("invalid op string = %q", got)
	}
}

func TestCondEval(t *testing.T) {
	cases := []struct {
		c    Cond
		a, b int64
		want bool
	}{
		{CondEQ, 1, 1, true},
		{CondEQ, 1, 2, false},
		{CondNE, 1, 2, true},
		{CondNE, 2, 2, false},
		{CondLT, -5, 3, true},
		{CondLT, 3, 3, false},
		{CondGE, 3, 3, true},
		{CondGE, 2, 3, false},
		{CondGT, 4, 3, true},
		{CondGT, 3, 3, false},
		{CondLE, 3, 3, true},
		{CondLE, 4, 3, false},
		{Cond(99), 1, 1, false},
	}
	for _, c := range cases {
		if got := c.c.Eval(c.a, c.b); got != c.want {
			t.Errorf("Cond(%v).Eval(%d,%d) = %v, want %v", c.c, c.a, c.b, got, c.want)
		}
	}
}

// Property: exactly one of (taken, not taken) holds for complementary
// condition pairs on any operands.
func TestCondComplementProperty(t *testing.T) {
	pairs := [][2]Cond{{CondEQ, CondNE}, {CondLT, CondGE}, {CondGT, CondLE}}
	f := func(a, b int64) bool {
		for _, p := range pairs {
			if p[0].Eval(a, b) == p[1].Eval(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassification(t *testing.T) {
	cases := []struct {
		in      Inst
		control bool
		condBr  bool
		uncond  bool
		termSeg bool
	}{
		{Inst{Op: OpAdd}, false, false, false, false},
		{Inst{Op: OpLoad}, false, false, false, false},
		{Inst{Op: OpBr}, true, true, false, false},
		{Inst{Op: OpJmp}, true, false, true, false},
		{Inst{Op: OpCall}, true, false, true, false},
		{Inst{Op: OpRet}, true, false, false, true},
		{Inst{Op: OpJmpInd}, true, false, false, true},
		{Inst{Op: OpTrap}, true, false, false, true},
		{Inst{Op: OpHalt}, true, false, false, true},
	}
	for _, c := range cases {
		if got := c.in.IsControl(); got != c.control {
			t.Errorf("%v IsControl = %v, want %v", c.in.Op, got, c.control)
		}
		if got := c.in.IsCondBranch(); got != c.condBr {
			t.Errorf("%v IsCondBranch = %v, want %v", c.in.Op, got, c.condBr)
		}
		if got := c.in.IsUncondDirect(); got != c.uncond {
			t.Errorf("%v IsUncondDirect = %v, want %v", c.in.Op, got, c.uncond)
		}
		if got := c.in.TerminatesSegment(); got != c.termSeg {
			t.Errorf("%v TerminatesSegment = %v, want %v", c.in.Op, got, c.termSeg)
		}
	}
}

func TestWritesReg(t *testing.T) {
	if r, ok := (Inst{Op: OpAdd, Rd: 5}).WritesReg(); !ok || r != 5 {
		t.Errorf("add r5 WritesReg = (%d,%v)", r, ok)
	}
	if _, ok := (Inst{Op: OpAdd, Rd: ZeroReg}).WritesReg(); ok {
		t.Error("write to r0 should be discarded")
	}
	if _, ok := (Inst{Op: OpStore, Rd: 5}).WritesReg(); ok {
		t.Error("store writes no register")
	}
	if r, ok := (Inst{Op: OpLoad, Rd: 7}).WritesReg(); !ok || r != 7 {
		t.Errorf("load WritesReg = (%d,%v)", r, ok)
	}
	if _, ok := (Inst{Op: OpBr, Rd: 3}).WritesReg(); ok {
		t.Error("branch writes no register")
	}
}

func TestSrcs(t *testing.T) {
	cases := []struct {
		in       Inst
		rs1, rs2 Reg
	}{
		{Inst{Op: OpAdd, Rs1: 1, Rs2: 2}, 1, 2},
		{Inst{Op: OpAdd, Rs1: 0, Rs2: 2}, 0, 2},
		{Inst{Op: OpAddI, Rs1: 3, Rs2: 9}, 3, 0},
		{Inst{Op: OpLoadI, Rs1: 3}, 0, 0},
		{Inst{Op: OpLoad, Rs1: 4, Rs2: 9}, 4, 0},
		{Inst{Op: OpStore, Rs1: 4, Rs2: 5}, 4, 5},
		{Inst{Op: OpBr, Rs1: 6, Rs2: 7}, 6, 7},
		{Inst{Op: OpJmpInd, Rs1: 8}, 8, 0},
		{Inst{Op: OpJmp, Rs1: 8}, 0, 0},
		{Inst{Op: OpRet, Rs1: 8}, 0, 0},
	}
	for _, c := range cases {
		if rs1, rs2 := c.in.Srcs(); rs1 != c.rs1 || rs2 != c.rs2 {
			t.Errorf("%v Srcs = (%d, %d), want (%d, %d)", c.in, rs1, rs2, c.rs1, c.rs2)
		}
	}
}

func TestLatency(t *testing.T) {
	if got := (Inst{Op: OpAdd}).Latency(); got != 1 {
		t.Errorf("add latency = %d", got)
	}
	if got := (Inst{Op: OpMul}).Latency(); got != 3 {
		t.Errorf("mul latency = %d", got)
	}
	if got := (Inst{Op: OpDiv}).Latency(); got != 12 {
		t.Errorf("div latency = %d", got)
	}
	if got := (Inst{Op: OpLoad}).Latency(); got != 1 {
		t.Errorf("load agen latency = %d", got)
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Inst{Op: OpAddI, Rd: 1, Rs1: 2, Imm: -4}, "addi r1, r2, -4"},
		{Inst{Op: OpLoadI, Rd: 9, Imm: 42}, "li r9, 42"},
		{Inst{Op: OpLoad, Rd: 1, Rs1: 2, Imm: 8}, "ld r1, 8(r2)"},
		{Inst{Op: OpStore, Rs1: 2, Rs2: 3, Imm: 16}, "st r3, 16(r2)"},
		{Inst{Op: OpBr, Cond: CondLT, Rs1: 1, Rs2: 2, Target: 77}, "br.lt r1, r2, @77"},
		{Inst{Op: OpJmp, Target: 5}, "jmp @5"},
		{Inst{Op: OpCall, Target: 6}, "call @6"},
		{Inst{Op: OpJmpInd, Rs1: 4}, "jr r4"},
		{Inst{Op: OpRet}, "ret"},
		{Inst{Op: OpHalt}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Inst{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}).Validate(10); err != nil {
		t.Errorf("valid add: %v", err)
	}
	if err := (Inst{Op: Op(250)}).Validate(10); err == nil {
		t.Error("invalid op accepted")
	}
	if err := (Inst{Op: OpAdd, Rd: 40}).Validate(10); err == nil {
		t.Error("out-of-range register accepted")
	}
	if err := (Inst{Op: OpBr, Cond: Cond(40), Target: 5}).Validate(10); err == nil {
		t.Error("invalid condition accepted")
	}
	if err := (Inst{Op: OpBr, Cond: CondEQ, Target: 10}).Validate(10); err == nil {
		t.Error("out-of-range branch target accepted")
	}
	if err := (Inst{Op: OpJmp, Target: -1}).Validate(10); err == nil {
		t.Error("negative jump target accepted")
	}
	if err := (Inst{Op: OpCall, Target: 9}).Validate(10); err != nil {
		t.Errorf("valid call: %v", err)
	}
}

func TestAddr(t *testing.T) {
	if Addr(0) != 0 || Addr(1) != 4 || Addr(100) != 400 {
		t.Error("Addr must scale by InstBytes")
	}
}

func TestPredicateHelpers(t *testing.T) {
	if !(Inst{Op: OpRet}).IsReturn() || (Inst{Op: OpJmp}).IsReturn() {
		t.Error("IsReturn")
	}
	if !(Inst{Op: OpJmpInd}).IsIndirect() || (Inst{Op: OpRet}).IsIndirect() {
		t.Error("IsIndirect")
	}
	if !(Inst{Op: OpTrap}).IsTrap() || (Inst{Op: OpHalt}).IsTrap() {
		t.Error("IsTrap")
	}
	if !(Inst{Op: OpLoad}).IsLoad() || (Inst{Op: OpStore}).IsLoad() {
		t.Error("IsLoad")
	}
	if !(Inst{Op: OpStore}).IsStore() || (Inst{Op: OpLoad}).IsStore() {
		t.Error("IsStore")
	}
	if !(Inst{Op: OpLoad}).IsMem() || !(Inst{Op: OpStore}).IsMem() || (Inst{Op: OpAdd}).IsMem() {
		t.Error("IsMem")
	}
}

func TestShrISemantics(t *testing.T) {
	in := Inst{Op: OpShrI, Rd: 1, Rs1: 2, Imm: 8}
	if got := in.String(); got != "shri r1, r2, 8" {
		t.Errorf("shri string = %q", got)
	}
	if r, ok := in.WritesReg(); !ok || r != 1 {
		t.Error("shri WritesReg")
	}
	if rs1, rs2 := in.Srcs(); rs1 != 2 || rs2 != ZeroReg {
		t.Errorf("shri srcs = (%d, %d)", rs1, rs2)
	}
}
