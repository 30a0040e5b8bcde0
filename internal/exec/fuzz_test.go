package exec

import (
	"testing"

	"tracecache/internal/isa"
	"tracecache/internal/program"
)

// FuzzStepAt feeds arbitrary decoded instructions and machine state to the
// interpreter. StepAt must never panic: the timing simulator executes
// whatever the wrong path reaches, including garbage control flow.
func FuzzStepAt(f *testing.F) {
	f.Add(uint8(isa.OpAdd), uint8(0), uint8(1), uint8(2), uint8(3), int64(7), int(2), int64(11))
	f.Add(uint8(isa.OpDiv), uint8(0), uint8(1), uint8(2), uint8(0), int64(0), int(0), int64(0))
	f.Add(uint8(isa.OpBr), uint8(3), uint8(0), uint8(30), uint8(31), int64(-1), int(1), int64(1<<40))
	f.Add(uint8(isa.OpJmpInd), uint8(0), uint8(0), uint8(5), uint8(5), int64(1<<50), int(0), int64(-9))
	f.Add(uint8(isa.OpRet), uint8(0), uint8(0), uint8(0), uint8(0), int64(0), int(0), int64(0))
	f.Add(uint8(isa.OpStore), uint8(0), uint8(0), uint8(9), uint8(8), int64(^0), int(0), int64(3))
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
		s := NewState(p)
		if r := in.Rs1; r != isa.ZeroReg {
			s.Regs[r] = regVal
		}
		sn := s.Checkpoint()
		info := step(s, 0)
		// Off-path probes must also be safe.
		step(s, -1)
		step(s, 1<<20)
		s.Rollback(sn)
		if in.Op == isa.OpBr && info.Taken && info.NextPC != in.Target {
			t.Fatalf("taken branch went to %d, want %d", info.NextPC, in.Target)
		}
		if s.Regs[0] != 0 {
			t.Fatal("r0 corrupted")
		}
	})
}
