package exec

import (
	"tracecache/internal/isa"
	"tracecache/internal/program"
)

// StepInfo records the architectural effects of executing one instruction.
type StepInfo struct {
	PC int
	// Inst points at the executed instruction in the program's code, or
	// at offImageInst for a PC outside it. Read it; never write through it.
	Inst    *isa.Inst
	NextPC  int    // actual next PC on this execution path
	Taken   bool   // conditional branch outcome
	MemAddr uint64 // effective address for loads and stores
	Value   int64  // value loaded or stored
	Halted  bool   // instruction was a halt
	// OffImage is set when pc was outside the code segment (possible only
	// on the wrong path); the step is then a no-op falling through.
	OffImage bool
}

// offImageInst is the instruction a step outside the code segment
// reports: a nop.
var offImageInst isa.Inst

// undo record kinds.
const (
	undoReg uint8 = iota
	undoMem
	undoPush // a call pushed; undo by popping
	undoPop  // a return popped; undo by pushing old back
)

type undoRec struct {
	kind uint8
	reg  isa.Reg
	addr uint64
	old  int64
}

// State is the architectural machine state. The timing simulator executes
// instructions against it in dispatch order — including down mispredicted
// paths — and uses Checkpoint/Rollback to recover, mirroring the
// checkpoint-repair execution core of the paper. Every architectural
// mutation StepAt makes is undo-logged, so a Snapshot is just a log
// position and checkpoints are O(1). The committed path, which never rolls
// back, steps with Commit and logs nothing.
type State struct {
	prog      *program.Program
	Regs      [isa.NumRegs]int64
	mem       *Memory
	callStack []int
	undo      []undoRec
	undoBase  uint64 // absolute index of undo[0]
	// undoDead counts the released records at the front of undo. They are
	// dropped lazily (see ReleaseBefore), so retirement does not re-copy the
	// live log every time.
	undoDead int
	steps    uint64
}

// NewState builds machine state for the program, loading its initial data
// image.
func NewState(p *program.Program) *State { return RenewState(nil, p) }

// RenewState is NewState built in old's storage: its memory pages
// (refilled with copies of the program's data image pages), undo log and
// call stack. old may be nil; a renewed old must not be used again.
func RenewState(old *State, p *program.Program) *State {
	s := &State{prog: p}
	if old != nil {
		s.mem, s.undo, s.callStack = old.mem, old.undo[:0], old.callStack[:0]
	} else {
		s.mem = NewMemory()
	}
	s.mem.load(p.Data)
	return s
}

// Program returns the program this state executes.
func (s *State) Program() *program.Program { return s.prog }

// Mem returns the data memory (for inspection in tests and examples).
func (s *State) Mem() *Memory { return s.mem }

// Steps returns the number of instructions executed, including speculative
// ones that were later rolled back.
func (s *State) Steps() uint64 { return s.steps }

// CallDepth returns the current call-stack depth.
func (s *State) CallDepth() int { return len(s.callStack) }

// CallStack returns a copy of the call stack (return targets, oldest
// first), for seeding a return address stack.
func (s *State) CallStack() []int {
	return append([]int(nil), s.callStack...)
}

// StepAt is Commit for a path that may be rolled back: it also logs what
// the instruction overwrites, so that Rollback can undo it, namely the
// destination register, a store's old word, a call's push or a return's
// popped entry.
//
//tc:hotpath
func (s *State) StepAt(pc int, info *StepInfo) { s.step(pc, info, true) }

// Commit executes the instruction at pc against the current state and
// writes its effects to info. It sets every field of info, so a caller
// can reuse one StepInfo for every step. The caller decides what executes
// next; NextPC reports where this execution path actually goes. Commit
// never panics: out-of-range PCs, division by zero, unmapped loads and
// unbalanced returns are all well defined, because the timing model
// executes wrong-path instructions. Commit writes no undo record: it is
// the step of the committed path, which never rolls back, and no snapshot
// taken before it can undo it.
//
// The caller owns info rather than receiving a StepInfo, which is too
// large for gc to return in registers: a returned one is stored field by
// field and read back wide, and the CPU cannot forward the narrow stores
// to the wide load.
//
//tc:hotpath
func (s *State) Commit(pc int, info *StepInfo) { s.step(pc, info, false) }

// step is StepAt when log is set and Commit otherwise. One switch
// classifies the instruction, executes it and, under log, records what it
// overwrites just before overwriting it.
//
//tc:hotpath
func (s *State) step(pc int, info *StepInfo, log bool) {
	s.steps++
	info.PC = pc
	info.NextPC = pc + 1
	info.Taken, info.Halted = false, false
	info.MemAddr, info.Value = 0, 0
	if pc < 0 || pc >= len(s.prog.Code) {
		info.Inst = &offImageInst
		info.OffImage = true
		return
	}
	info.OffImage = false
	in := &s.prog.Code[pc]
	info.Inst = in
	r := &s.Regs
	var v int64 // what an ALU operation or a load writes to in.Rd
	switch in.Op {
	case isa.OpAdd:
		v = r[in.Rs1] + r[in.Rs2]
	case isa.OpSub:
		v = r[in.Rs1] - r[in.Rs2]
	case isa.OpMul:
		v = r[in.Rs1] * r[in.Rs2]
	case isa.OpDiv:
		if d := r[in.Rs2]; d != 0 {
			v = r[in.Rs1] / d
		}
	case isa.OpAnd:
		v = r[in.Rs1] & r[in.Rs2]
	case isa.OpOr:
		v = r[in.Rs1] | r[in.Rs2]
	case isa.OpXor:
		v = r[in.Rs1] ^ r[in.Rs2]
	case isa.OpShl:
		v = r[in.Rs1] << (uint64(r[in.Rs2]) & 63)
	case isa.OpShr:
		v = int64(uint64(r[in.Rs1]) >> (uint64(r[in.Rs2]) & 63))
	case isa.OpAddI:
		v = r[in.Rs1] + in.Imm
	case isa.OpMulI:
		v = r[in.Rs1] * in.Imm
	case isa.OpAndI:
		v = r[in.Rs1] & in.Imm
	case isa.OpShrI:
		v = int64(uint64(r[in.Rs1]) >> (uint64(in.Imm) & 63))
	case isa.OpLoadI:
		v = in.Imm
	case isa.OpLoad:
		addr := s.effAddr(in)
		v = s.mem.Read(addr)
		info.MemAddr, info.Value = addr, v
	case isa.OpStore:
		addr := s.effAddr(in)
		v = r[in.Rs2]
		if log {
			s.undo = append(s.undo, undoRec{kind: undoMem, addr: addr, old: s.mem.Read(addr)})
		}
		s.mem.Write(addr, v)
		info.MemAddr, info.Value = addr, v
		return
	case isa.OpBr:
		info.Taken = in.Cond.Eval(r[in.Rs1], r[in.Rs2])
		if info.Taken {
			info.NextPC = in.Target
		}
		return
	case isa.OpJmp:
		info.NextPC = in.Target
		return
	case isa.OpCall:
		if log {
			s.undo = append(s.undo, undoRec{kind: undoPush})
		}
		s.callStack = append(s.callStack, pc+1)
		info.NextPC = in.Target
		return
	case isa.OpRet:
		if n := len(s.callStack); n > 0 {
			if log {
				s.undo = append(s.undo, undoRec{kind: undoPop, old: int64(s.callStack[n-1])})
			}
			info.NextPC = s.callStack[n-1]
			s.callStack = s.callStack[:n-1]
		} // unbalanced return (wrong path): fall through
		return
	case isa.OpJmpInd:
		info.NextPC = int(r[in.Rs1])
		return
	case isa.OpHalt:
		info.Halted = true
		info.NextPC = pc
		return
	default:
		return // nop and trap have no architectural effect
	}
	if in.Rd == isa.ZeroReg {
		return // r0 is constant: a write to it is discarded
	}
	if log {
		s.undo = append(s.undo, undoRec{kind: undoReg, reg: in.Rd, old: r[in.Rd]})
	}
	r[in.Rd] = v
}

// effAddr returns a load's or store's effective address, aligned down to
// its word.
func (s *State) effAddr(in *isa.Inst) uint64 {
	return uint64(s.Regs[in.Rs1]+in.Imm) &^ 7
}

// Snapshot is a recoverable point in execution: a position in the undo
// log. The timing model takes one per dispatched instruction, so recovery
// can roll back to any instruction boundary.
type Snapshot struct {
	undoMark uint64 // absolute undo-log position
}

// Checkpoint captures the current state as an O(1) log position.
func (s *State) Checkpoint() Snapshot {
	return Snapshot{undoMark: s.undoBase + uint64(len(s.undo))}
}

// Rollback restores the state captured by the snapshot, undoing every
// mutation performed since it was taken. The snapshot must not be older
// than the last ReleaseBefore mark.
func (s *State) Rollback(sn Snapshot) {
	keep := int(sn.undoMark - s.undoBase)
	if keep < s.undoDead {
		keep = s.undoDead
	}
	for i := len(s.undo) - 1; i >= keep; i-- {
		u := s.undo[i]
		switch u.kind {
		case undoReg:
			s.Regs[u.reg] = u.old
		case undoMem:
			s.mem.Write(u.addr, u.old)
		case undoPush:
			s.callStack = s.callStack[:len(s.callStack)-1]
		case undoPop:
			s.callStack = append(s.callStack, int(u.old))
		}
	}
	s.undo = s.undo[:keep]
}

// ReleaseBefore discards undo history older than the snapshot, bounding
// memory use. Call it when a snapshot can no longer be rolled back to (the
// instruction that took it has retired).
//
// Released records stay in place as a dead prefix of the log; the live part
// is copied down only once the prefix is at least as long as it. Each copy
// is paid for by at least as many released records, so a retirement costs
// amortized O(1) rather than a copy of the whole live log.
func (s *State) ReleaseBefore(sn Snapshot) {
	drop := int(sn.undoMark - s.undoBase)
	switch {
	case drop >= len(s.undo):
		s.undoBase += uint64(len(s.undo))
		s.undo = s.undo[:0]
		s.undoDead = 0
	case drop > s.undoDead && drop >= len(s.undo)-drop:
		n := copy(s.undo, s.undo[drop:])
		s.undo = s.undo[:n]
		s.undoBase += uint64(drop)
		s.undoDead = 0
	case drop > s.undoDead:
		s.undoDead = drop
	}
}

// UndoLen returns the number of live undo records (for tests).
func (s *State) UndoLen() int { return len(s.undo) - s.undoDead }

// Run commits instructions from the entry point until halt or until
// limit instructions have executed, returning the count and whether the
// program halted. It is the non-speculative "oracle" execution used by
// workload analysis and tests.
func (s *State) Run(limit uint64) (steps uint64, halted bool) { return s.run(limit, nil) }

// Trace commits instructions from the program entry on a new state,
// invoking fn for each retired instruction until fn returns false, the
// program halts, or limit instructions have executed. It is used to
// analyse dynamic instruction streams. fn's StepInfo is reused for the
// next step: fn must copy what it keeps.
func Trace(p *program.Program, limit uint64, fn func(*StepInfo) bool) (steps uint64, halted bool) {
	return NewState(p).run(limit, fn)
}

// run is the loop of Run and Trace; fn may be nil.
func (s *State) run(limit uint64, fn func(*StepInfo) bool) (steps uint64, halted bool) {
	pc := s.prog.Entry
	var info StepInfo
	for steps < limit {
		s.Commit(pc, &info)
		steps++
		if fn != nil && !fn(&info) {
			return steps, false
		}
		if info.Halted {
			return steps, true
		}
		pc = info.NextPC
	}
	return steps, false
}
