package exec

import (
	"slices"
	"testing"

	"tracecache/internal/isa"
	"tracecache/internal/program"
)

// FuzzStepAt feeds arbitrary decoded instructions and machine state to the
// interpreter. StepAt and Commit must never panic: the timing simulator
// executes whatever the wrong path reaches, including garbage control
// flow. Commit must have StepAt's effects and log none of them, and
// rolling StepAt back must restore every register, the word it touched
// and the call stack. Bit 2 of target seeds the call stack, so a return
// pops an entry.
func FuzzStepAt(f *testing.F) {
	f.Add(uint8(isa.OpAdd), uint8(0), uint8(1), uint8(2), uint8(3), int64(7), int(2), int64(11))
	f.Add(uint8(isa.OpDiv), uint8(0), uint8(1), uint8(2), uint8(0), int64(0), int(0), int64(0))
	f.Add(uint8(isa.OpBr), uint8(3), uint8(0), uint8(30), uint8(31), int64(-1), int(1), int64(1<<40))
	f.Add(uint8(isa.OpJmpInd), uint8(0), uint8(0), uint8(5), uint8(5), int64(1<<50), int(0), int64(-9))
	f.Add(uint8(isa.OpRet), uint8(0), uint8(0), uint8(0), uint8(0), int64(0), int(0), int64(0))
	f.Add(uint8(isa.OpStore), uint8(0), uint8(0), uint8(9), uint8(8), int64(^0), int(0), int64(3))
	f.Add(uint8(isa.OpRet), uint8(0), uint8(0), uint8(0), uint8(0), int64(0), int(4), int64(0))
	f.Add(uint8(isa.OpLoad), uint8(0), uint8(4), uint8(4), uint8(0), int64(16), int(0), int64(64))
	f.Fuzz(func(t *testing.T, op, cond, rd, rs1, rs2 uint8, imm int64, target int, regVal int64) {
		b := program.NewBuilder("fuzz")
		// Keep targets in range so Build accepts the program; the fuzz
		// interest is in semantics, not validation (tested elsewhere).
		tgt := target & 3
		if tgt < 0 {
			tgt = 0
		}
		in := isa.Inst{
			Op:     isa.Op(op % 24),
			Cond:   isa.Cond(cond % 6),
			Rd:     isa.Reg(rd % isa.NumRegs),
			Rs1:    isa.Reg(rs1 % isa.NumRegs),
			Rs2:    isa.Reg(rs2 % isa.NumRegs),
			Imm:    imm,
			Target: tgt,
		}
		b.Emit(in)
		b.Emit(isa.Inst{Op: isa.OpNop})
		b.Emit(isa.Inst{Op: isa.OpNop})
		b.Emit(isa.Inst{Op: isa.OpHalt})
		p, err := b.Build()
		if err != nil {
			t.Skip() // malformed combinations are Validate's job
		}
		// Three identical states: s steps with StepAt, twin with Commit,
		// and before keeps the state both started from. The word the
		// instruction would load or store differs from any register, so a
		// store changes it.
		word := ^regVal
		if word == 0 {
			word = 1
		}
		newState := func() *State {
			s := NewState(p)
			if r := in.Rs1; r != isa.ZeroReg {
				s.Regs[r] = regVal
			}
			s.mem.Write(s.effAddr(&in), word)
			if target&4 != 0 {
				s.callStack = append(s.callStack, 3)
			}
			return s
		}
		s, twin, before := newState(), newState(), newState()
		sn := s.Checkpoint()
		info := step(s, 0)
		var committed StepInfo
		twin.Commit(0, &committed)
		if committed != info {
			t.Fatalf("Commit stepped %+v, StepAt %+v", committed, info)
		}
		if twin.Regs != s.Regs || twin.mem.Read(info.MemAddr) != s.mem.Read(info.MemAddr) ||
			!slices.Equal(twin.CallStack(), s.CallStack()) {
			t.Fatalf("Commit left regs %v, mem[%#x] %d, calls %v; StepAt regs %v, %d, calls %v",
				twin.Regs, info.MemAddr, twin.mem.Read(info.MemAddr), twin.CallStack(),
				s.Regs, s.mem.Read(info.MemAddr), s.CallStack())
		}
		// Off-path probes must also be safe.
		step(s, -1)
		step(s, 1<<20)
		twin.Commit(-1, &committed)
		twin.Commit(1<<20, &committed)
		if twin.UndoLen() != 0 {
			t.Fatalf("Commit logged %d undo records", twin.UndoLen())
		}
		s.Rollback(sn)
		if in.Op == isa.OpBr && info.Taken && info.NextPC != in.Target {
			t.Fatalf("taken branch went to %d, want %d", info.NextPC, in.Target)
		}
		if s.Regs != before.Regs {
			t.Fatalf("rolled back regs %v, want %v", s.Regs, before.Regs)
		}
		if got, want := s.mem.Read(info.MemAddr), before.mem.Read(info.MemAddr); got != want {
			t.Fatalf("rolled back mem[%#x] = %d, want %d", info.MemAddr, got, want)
		}
		if !slices.Equal(s.CallStack(), before.CallStack()) {
			t.Fatalf("rolled back call stack %v, want %v", s.CallStack(), before.CallStack())
		}
	})
}
