// Package isa defines the instruction set architecture simulated by the
// trace cache model: a small load/store RISC ISA with fixed-size
// instructions, conditional branches, direct and indirect jumps,
// call/return, and a serializing trap instruction.
//
// The ISA stands in for the SimpleScalar PISA instruction set used by the
// paper. Instructions are represented as decoded structs rather than bit
// encodings; the fetch and cache models only need each instruction's
// 4-byte footprint, which Addr exposes.
package isa

import "fmt"

// Reg names an architectural register. Register 0 is hardwired to zero.
type Reg uint8

// NumRegs is the number of architectural registers.
const NumRegs = 32

// ZeroReg reads as zero and ignores writes.
const ZeroReg Reg = 0

// InstBytes is the storage footprint of one instruction, used by the
// instruction cache and trace cache models.
const InstBytes = 4

// Addr converts an instruction index (PC) into a byte address for cache
// indexing.
func Addr(pc int) uint64 { return uint64(pc) * InstBytes }

// Op identifies an operation.
type Op uint8

// Operations. ALU operations take two register sources (or a source and an
// immediate) and write a destination. Memory operations use base+offset
// addressing. Control operations are classified by the Is* helpers.
const (
	OpNop Op = iota
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpAddI   // rd = rs1 + imm
	OpMulI   // rd = rs1 * imm
	OpAndI   // rd = rs1 & imm
	OpShrI   // rd = uint(rs1) >> (imm & 63)
	OpLoadI  // rd = imm
	OpLoad   // rd = mem[rs1 + imm]
	OpStore  // mem[rs1 + imm] = rs2
	OpBr     // if cond(rs1, rs2) goto Target
	OpJmp    // goto Target
	OpCall   // push return address, goto Target
	OpRet    // pop return address, jump there
	OpJmpInd // goto value(rs1)
	OpTrap   // serializing instruction
	OpHalt   // terminate the program
	numOps
)

var opNames = [numOps]string{
	OpNop: "nop", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpAddI: "addi", OpMulI: "muli", OpAndI: "andi", OpShrI: "shri", OpLoadI: "li",
	OpLoad: "ld", OpStore: "st", OpBr: "br", OpJmp: "jmp", OpCall: "call",
	OpRet: "ret", OpJmpInd: "jr", OpTrap: "trap", OpHalt: "halt",
}

// String returns the mnemonic for the operation.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o names a defined operation.
func (o Op) Valid() bool { return o < numOps }

// Cond is the comparison applied by a conditional branch.
type Cond uint8

// Branch conditions compare the values of Rs1 and Rs2.
const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondGE
	CondGT
	CondLE
	numConds
)

var condNames = [numConds]string{"eq", "ne", "lt", "ge", "gt", "le"}

// String returns the mnemonic suffix for the condition.
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Valid reports whether c names a defined condition.
func (c Cond) Valid() bool { return c < numConds }

// Eval applies the condition to two operand values.
func (c Cond) Eval(a, b int64) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondGE:
		return a >= b
	case CondGT:
		return a > b
	case CondLE:
		return a <= b
	}
	return false
}

// Inst is one decoded instruction.
type Inst struct {
	Op     Op
	Cond   Cond // valid when Op == OpBr
	Rd     Reg  // destination register
	Rs1    Reg  // first source register (also base for memory, target for jr)
	Rs2    Reg  // second source register (also store data)
	Imm    int64
	Target int // branch/jump/call target as an instruction index
}

// IsControl reports whether the instruction can redirect the PC.
func (i Inst) IsControl() bool {
	switch i.Op {
	case OpBr, OpJmp, OpCall, OpRet, OpJmpInd, OpTrap, OpHalt:
		return true
	}
	return false
}

// IsCondBranch reports whether the instruction is a conditional branch.
func (i Inst) IsCondBranch() bool { return i.Op == OpBr }

// IsUncondDirect reports whether the instruction is an unconditional
// direct control transfer (jump or call). Per the paper, these do not
// terminate fetch blocks within trace segments.
func (i Inst) IsUncondDirect() bool { return i.Op == OpJmp || i.Op == OpCall }

// IsReturn reports whether the instruction is a subroutine return.
func (i Inst) IsReturn() bool { return i.Op == OpRet }

// IsIndirect reports whether the instruction is an indirect jump (not a
// return).
func (i Inst) IsIndirect() bool { return i.Op == OpJmpInd }

// IsTrap reports whether the instruction is a serializing trap.
func (i Inst) IsTrap() bool { return i.Op == OpTrap }

// IsLoad reports whether the instruction reads memory.
func (i Inst) IsLoad() bool { return i.Op == OpLoad }

// IsStore reports whether the instruction writes memory.
func (i Inst) IsStore() bool { return i.Op == OpStore }

// IsMem reports whether the instruction accesses memory.
func (i Inst) IsMem() bool { return i.IsLoad() || i.IsStore() }

// TerminatesSegment reports whether the instruction forces the fill unit to
// finalize the pending trace segment (returns, indirect jumps, and
// serializing instructions, per Section 3 of the paper).
func (i Inst) TerminatesSegment() bool {
	switch i.Op {
	case OpRet, OpJmpInd, OpTrap, OpHalt:
		return true
	}
	return false
}

// WritesReg returns the destination register and whether the instruction
// writes one.
func (i Inst) WritesReg() (Reg, bool) {
	switch i.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpAddI, OpMulI, OpAndI, OpShrI, OpLoadI, OpLoad:
		if i.Rd == ZeroReg {
			return 0, false
		}
		return i.Rd, true
	}
	return 0, false
}

// Srcs returns the at most two source registers the instruction reads,
// ZeroReg for an operand it does not read (r0 is constant, so it is never
// a dependence either).
func (i Inst) Srcs() (Reg, Reg) {
	switch i.Op {
	case OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpShl, OpShr, OpStore, OpBr:
		return i.Rs1, i.Rs2
	case OpAddI, OpMulI, OpAndI, OpShrI, OpLoad, OpJmpInd:
		return i.Rs1, ZeroReg
	}
	return ZeroReg, ZeroReg
}

// Latency returns the execution latency in cycles for the instruction,
// excluding memory-hierarchy time for loads (the data cache model adds
// that). The values follow common superscalar models: single-cycle simple
// ALU, 3-cycle multiply, 12-cycle divide, 1-cycle address generation.
func (i Inst) Latency() int {
	switch i.Op {
	case OpMul, OpMulI:
		return 3
	case OpDiv:
		return 12
	default:
		return 1
	}
}

// String renders the instruction in assembly-like form.
func (i Inst) String() string {
	switch i.Op {
	case OpNop, OpTrap, OpHalt, OpRet:
		return i.Op.String()
	case OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpShl, OpShr:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs1, i.Rs2)
	case OpAddI, OpMulI, OpAndI, OpShrI:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case OpLoadI:
		return fmt.Sprintf("li r%d, %d", i.Rd, i.Imm)
	case OpLoad:
		return fmt.Sprintf("ld r%d, %d(r%d)", i.Rd, i.Imm, i.Rs1)
	case OpStore:
		return fmt.Sprintf("st r%d, %d(r%d)", i.Rs2, i.Imm, i.Rs1)
	case OpBr:
		return fmt.Sprintf("br.%s r%d, r%d, @%d", i.Cond, i.Rs1, i.Rs2, i.Target)
	case OpJmp:
		return fmt.Sprintf("jmp @%d", i.Target)
	case OpCall:
		return fmt.Sprintf("call @%d", i.Target)
	case OpJmpInd:
		return fmt.Sprintf("jr r%d", i.Rs1)
	}
	return fmt.Sprintf("%s ?", i.Op)
}

// Validate reports an error if the instruction is malformed with respect to
// a program of length codeLen.
func (i Inst) Validate(codeLen int) error {
	if !i.Op.Valid() {
		return fmt.Errorf("isa: invalid op %d", i.Op)
	}
	if i.Rd >= NumRegs || i.Rs1 >= NumRegs || i.Rs2 >= NumRegs {
		return fmt.Errorf("isa: %v: register out of range", i)
	}
	switch i.Op {
	case OpBr:
		if !i.Cond.Valid() {
			return fmt.Errorf("isa: %v: invalid condition", i)
		}
		fallthrough
	case OpJmp, OpCall:
		if i.Target < 0 || i.Target >= codeLen {
			return fmt.Errorf("isa: %v: target %d out of range [0,%d)", i, i.Target, codeLen)
		}
	}
	return nil
}
