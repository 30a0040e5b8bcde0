package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tracecache/internal/isa"
	"tracecache/internal/program"
)

// dataWord is one word of a test program's initial data image.
type dataWord struct {
	addr uint64
	v    int64
}

// buildLoop builds a summing loop whose initial data image holds data.
func buildLoop(t *testing.T, data ...dataWord) *program.Program {
	t.Helper()
	b := program.NewBuilder("loop")
	for _, w := range data {
		b.Word(w.addr, w.v)
	}
	b.Here("main")
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 1, Imm: 5}) // r1 = 5
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 2, Imm: 0}) // r2 = 0
	b.Here("loop")
	b.Emit(isa.Inst{Op: isa.OpAdd, Rd: 2, Rs1: 2, Rs2: 1}) // r2 += r1
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

// step executes the instruction at pc into a fresh StepInfo.
func step(s *State, pc int) StepInfo {
	var info StepInfo
	s.StepAt(pc, &info)
	return info
}

// addrReg and valReg are the operand registers of writesProg's
// instructions, which the tests poke directly before stepping one.
const addrReg, valReg = isa.NumRegs - 2, isa.NumRegs - 1

// writesProg builds a program whose instructions make logged writes:
// pc 0 stores valReg at the address in addrReg, and pc 1+r copies valReg
// into register r, for every r below addrReg. Its initial data image
// holds data.
func writesProg(t *testing.T, data ...dataWord) *program.Program {
	t.Helper()
	b := program.NewBuilder("writes")
	for _, w := range data {
		b.Word(w.addr, w.v)
	}
	b.Emit(isa.Inst{Op: isa.OpStore, Rs1: addrReg, Rs2: valReg})
	for r := isa.Reg(0); r < addrReg; r++ {
		b.Emit(isa.Inst{Op: isa.OpAdd, Rd: r, Rs1: valReg})
	}
	b.Emit(isa.Inst{Op: isa.OpHalt})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stepReg sets register r to v through StepAt on a writesProg state.
func stepReg(s *State, r isa.Reg, v int64) {
	s.Regs[valReg] = v
	step(s, 1+int(r))
}

// stepStore stores v at addr through StepAt on a writesProg state.
func stepStore(s *State, addr uint64, v int64) {
	s.Regs[addrReg], s.Regs[valReg] = int64(addr), v
	step(s, 0)
}

// TestStepAtOverwritesInfo: one StepInfo reused across steps, starting
// dirty, equals a zero StepInfo stepped at the same PC on an identical
// state after every step, so no field leaks from the previous step: not
// a store's address and value, a taken branch's outcome, a halt, or an
// off-image flag. The same holds for Commit.
func TestStepAtOverwritesInfo(t *testing.T) {
	b := program.NewBuilder("overwrite")
	b.Here("main")
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 1, Imm: 8})
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 2, Imm: 42})
	b.Emit(isa.Inst{Op: isa.OpStore, Rs1: 1, Rs2: 2})
	b.EmitTo(isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ}, "end") // r0 == r0: taken
	b.Emit(isa.Inst{Op: isa.OpNop})
	b.Here("end")
	b.Emit(isa.Inst{Op: isa.OpHalt})
	b.Entry("main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	reusedState, freshState, committedState := NewState(p), NewState(p), NewState(p)
	reused := StepInfo{
		PC: -7, Inst: &isa.Inst{Op: isa.OpStore, Cond: isa.CondLE, Rd: 3, Rs1: 4, Rs2: 5, Imm: 6, Target: 7},
		NextPC: -8, Taken: true, MemAddr: 9, Value: 10, Halted: true, OffImage: true,
	}
	committed := reused
	// The store, the taken branch, the halt, an off-image PC, then an
	// in-image instruction again.
	pcs := []int{0, 1, 2, 3, 5, len(p.Code) + 3, 4}
	fresh := make([]StepInfo, len(pcs))
	for i, pc := range pcs {
		reusedState.StepAt(pc, &reused)
		freshState.StepAt(pc, &fresh[i])
		committedState.Commit(pc, &committed)
		if reused != fresh[i] {
			t.Errorf("pc %d: reused StepInfo = %+v, want %+v", pc, reused, fresh[i])
		}
		if committed != fresh[i] {
			t.Errorf("pc %d: reused committed StepInfo = %+v, want %+v", pc, committed, fresh[i])
		}
	}
	// Each field that could leak was set by the step before.
	if st := fresh[2]; st.MemAddr != 8 || st.Value != 42 {
		t.Errorf("store stepped to %+v, want address 8 and value 42", st)
	}
	if !fresh[3].Taken || !fresh[4].Halted || !fresh[5].OffImage {
		t.Errorf("branch, halt and off-image steps = %+v, %+v, %+v", fresh[3], fresh[4], fresh[5])
	}
}

func TestRunLoopComputesSum(t *testing.T) {
	p := buildLoop(t)
	s := NewState(p)
	steps, halted := s.Run(1000)
	if !halted {
		t.Fatal("program did not halt")
	}
	if s.Regs[2] != 5+4+3+2+1 {
		t.Errorf("r2 = %d, want 15", s.Regs[2])
	}
	if steps == 0 || steps > 1000 {
		t.Errorf("steps = %d", steps)
	}
}

func TestRunRespectsLimit(t *testing.T) {
	b := program.NewBuilder("spin")
	b.Here("top")
	b.EmitTo(isa.Inst{Op: isa.OpJmp}, "top")
	b.Emit(isa.Inst{Op: isa.OpHalt})
	b.Entry("top")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(p)
	steps, halted := s.Run(100)
	if halted || steps != 100 {
		t.Errorf("steps=%d halted=%v, want 100,false", steps, halted)
	}
}

func TestALUSemantics(t *testing.T) {
	cases := []struct {
		op   isa.Op
		a, b int64
		want int64
	}{
		{isa.OpAdd, 3, 4, 7},
		{isa.OpSub, 3, 4, -1},
		{isa.OpMul, 3, 4, 12},
		{isa.OpDiv, 12, 4, 3},
		{isa.OpDiv, 12, 0, 0}, // division by zero is defined as 0
		{isa.OpAnd, 0b1100, 0b1010, 0b1000},
		{isa.OpOr, 0b1100, 0b1010, 0b1110},
		{isa.OpXor, 0b1100, 0b1010, 0b0110},
		{isa.OpShl, 1, 4, 16},
		{isa.OpShr, 16, 4, 1},
		{isa.OpShl, 1, 64 + 2, 4}, // shift amounts are masked to 6 bits
	}
	for _, c := range cases {
		b := program.NewBuilder("alu")
		b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 1, Imm: c.a})
		b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 2, Imm: c.b})
		b.Emit(isa.Inst{Op: c.op, Rd: 3, Rs1: 1, Rs2: 2})
		b.Emit(isa.Inst{Op: isa.OpHalt})
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := NewState(p)
		s.Run(10)
		if s.Regs[3] != c.want {
			t.Errorf("%v(%d,%d) = %d, want %d", c.op, c.a, c.b, s.Regs[3], c.want)
		}
	}
}

func TestImmediateOps(t *testing.T) {
	b := program.NewBuilder("imm")
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 1, Imm: 10})
	b.Emit(isa.Inst{Op: isa.OpAddI, Rd: 2, Rs1: 1, Imm: 5})
	b.Emit(isa.Inst{Op: isa.OpMulI, Rd: 3, Rs1: 1, Imm: 3})
	b.Emit(isa.Inst{Op: isa.OpAndI, Rd: 4, Rs1: 1, Imm: 8})
	b.Emit(isa.Inst{Op: isa.OpHalt})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(p)
	s.Run(10)
	if s.Regs[2] != 15 || s.Regs[3] != 30 || s.Regs[4] != 8 {
		t.Errorf("regs = %d %d %d", s.Regs[2], s.Regs[3], s.Regs[4])
	}
}

func TestZeroRegisterIsConstant(t *testing.T) {
	b := program.NewBuilder("zero")
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 0, Imm: 99})
	b.Emit(isa.Inst{Op: isa.OpAddI, Rd: 1, Rs1: 0, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpHalt})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(p)
	s.Run(10)
	if s.Regs[0] != 0 {
		t.Errorf("r0 = %d, want 0", s.Regs[0])
	}
	if s.Regs[1] != 1 {
		t.Errorf("r1 = %d, want 1", s.Regs[1])
	}
}

func TestLoadStore(t *testing.T) {
	b := program.NewBuilder("mem")
	b.Word(0x1000, 7)
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 1, Imm: 0x1000})
	b.Emit(isa.Inst{Op: isa.OpLoad, Rd: 2, Rs1: 1})            // r2 = mem[0x1000] = 7
	b.Emit(isa.Inst{Op: isa.OpAddI, Rd: 3, Rs1: 2, Imm: 1})    // r3 = 8
	b.Emit(isa.Inst{Op: isa.OpStore, Rs1: 1, Rs2: 3, Imm: 8})  // mem[0x1008] = 8
	b.Emit(isa.Inst{Op: isa.OpLoad, Rd: 4, Rs1: 1, Imm: 8})    // r4 = 8
	b.Emit(isa.Inst{Op: isa.OpLoad, Rd: 5, Rs1: 1, Imm: 4096}) // unmapped = 0
	b.Emit(isa.Inst{Op: isa.OpHalt})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(p)
	s.Run(10)
	if s.Regs[2] != 7 || s.Regs[4] != 8 || s.Regs[5] != 0 {
		t.Errorf("r2=%d r4=%d r5=%d", s.Regs[2], s.Regs[4], s.Regs[5])
	}
}

func TestCallReturn(t *testing.T) {
	b := program.NewBuilder("call")
	b.Here("main")
	b.EmitTo(isa.Inst{Op: isa.OpCall}, "fn")
	b.Emit(isa.Inst{Op: isa.OpAddI, Rd: 2, Rs1: 1, Imm: 1}) // after return: r2 = r1+1
	b.Emit(isa.Inst{Op: isa.OpHalt})
	b.Here("fn")
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 1, Imm: 41})
	b.Emit(isa.Inst{Op: isa.OpRet})
	b.Entry("main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(p)
	_, halted := s.Run(100)
	if !halted || s.Regs[2] != 42 {
		t.Errorf("halted=%v r2=%d", halted, s.Regs[2])
	}
	if s.CallDepth() != 0 {
		t.Errorf("call depth = %d, want 0", s.CallDepth())
	}
}

func TestIndirectJump(t *testing.T) {
	b := program.NewBuilder("ind")
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 1, Imm: 0x2000})
	b.Emit(isa.Inst{Op: isa.OpLoad, Rd: 2, Rs1: 1}) // r2 = target
	b.Emit(isa.Inst{Op: isa.OpJmpInd, Rs1: 2})
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 3, Imm: 1}) // skipped
	b.Here("dest")
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 4, Imm: 2})
	b.Emit(isa.Inst{Op: isa.OpHalt})
	b.Word(0x2000, 4) // instruction index of "dest"
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(p)
	s.Run(100)
	if s.Regs[3] != 0 || s.Regs[4] != 2 {
		t.Errorf("r3=%d r4=%d", s.Regs[3], s.Regs[4])
	}
}

func TestStepAtWrongPathSafety(t *testing.T) {
	p := buildLoop(t)
	s := NewState(p)
	// Off-image PC must not panic and must fall through.
	info := step(s, len(p.Code)+10)
	if !info.OffImage || info.NextPC != len(p.Code)+11 {
		t.Errorf("off-image step = %+v", info)
	}
	info = step(s, -3)
	if !info.OffImage {
		t.Errorf("negative step = %+v", info)
	}
	// Unbalanced return falls through.
	b := program.NewBuilder("ret")
	b.Emit(isa.Inst{Op: isa.OpRet})
	b.Emit(isa.Inst{Op: isa.OpHalt})
	rp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rs := NewState(rp)
	ri := step(rs, 0)
	if ri.NextPC != 1 {
		t.Errorf("unbalanced ret NextPC = %d, want 1", ri.NextPC)
	}
}

func TestCheckpointRollbackRegisters(t *testing.T) {
	s := NewState(writesProg(t))
	stepReg(s, 1, 100)
	sn := s.Checkpoint()
	stepReg(s, 1, 200)
	stepReg(s, 2, 300)
	s.Rollback(sn)
	if s.Regs[1] != 100 || s.Regs[2] != 0 {
		t.Errorf("after rollback r1=%d r2=%d", s.Regs[1], s.Regs[2])
	}
	// Writes to r0 are discarded and not logged.
	undo := s.UndoLen()
	stepReg(s, 0, 7)
	if s.Regs[0] != 0 {
		t.Error("r0 written")
	}
	if s.UndoLen() != undo {
		t.Errorf("write to r0 logged: undo length %d, want %d", s.UndoLen(), undo)
	}
}

func TestCheckpointRollbackMemory(t *testing.T) {
	s := NewState(writesProg(t))
	stepStore(s, 0x100, 1)
	sn := s.Checkpoint()
	stepStore(s, 0x100, 2)
	stepStore(s, 0x108, 3)
	stepStore(s, 0x100, 4)
	s.Rollback(sn)
	if got := s.Mem().Read(0x100); got != 1 {
		t.Errorf("mem[0x100] = %d, want 1", got)
	}
	if got := s.Mem().Read(0x108); got != 0 {
		t.Errorf("mem[0x108] = %d, want 0", got)
	}
}

func TestNestedCheckpoints(t *testing.T) {
	s := NewState(writesProg(t))
	stepStore(s, 0x0, 1)
	sn1 := s.Checkpoint()
	stepStore(s, 0x0, 2)
	sn2 := s.Checkpoint()
	stepStore(s, 0x0, 3)
	s.Rollback(sn2)
	if got := s.Mem().Read(0); got != 2 {
		t.Errorf("after inner rollback mem = %d, want 2", got)
	}
	s.Rollback(sn1)
	if got := s.Mem().Read(0); got != 1 {
		t.Errorf("after outer rollback mem = %d, want 1", got)
	}
}

func TestRollbackRestoresCallStack(t *testing.T) {
	b := program.NewBuilder("c")
	b.Here("main")
	b.EmitTo(isa.Inst{Op: isa.OpCall}, "fn")
	b.Emit(isa.Inst{Op: isa.OpHalt})
	b.Here("fn")
	b.Emit(isa.Inst{Op: isa.OpRet})
	b.Entry("main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(p)
	step(s, 0) // call: depth 1
	sn := s.Checkpoint()
	step(s, 2) // ret: depth 0
	if s.CallDepth() != 0 {
		t.Fatalf("depth after ret = %d", s.CallDepth())
	}
	s.Rollback(sn)
	if s.CallDepth() != 1 {
		t.Errorf("depth after rollback = %d, want 1", s.CallDepth())
	}
	// Re-execute the return; it must pop the restored entry.
	info := step(s, 2)
	if info.NextPC != 1 {
		t.Errorf("ret NextPC = %d, want 1", info.NextPC)
	}
}

func TestCallStackCopySemantics(t *testing.T) {
	b := program.NewBuilder("call")
	b.Here("main")
	b.EmitTo(isa.Inst{Op: isa.OpCall}, "fn")
	b.Emit(isa.Inst{Op: isa.OpHalt})
	b.Here("fn")
	b.Emit(isa.Inst{Op: isa.OpRet})
	b.Entry("main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewState(p)
	step(s, 0) // call
	cs := s.CallStack()
	if len(cs) != 1 || cs[0] != 1 {
		t.Fatalf("call stack = %v, want [1]", cs)
	}
	cs[0] = 99 // mutating the copy must not touch the state
	if got := s.CallStack(); got[0] != 1 {
		t.Errorf("CallStack aliased internal storage: %v", got)
	}
}

func TestReleaseBeforeTrimsUndo(t *testing.T) {
	s := NewState(writesProg(t))
	for i := 0; i < 100; i++ {
		stepStore(s, uint64(i*8), int64(i))
	}
	sn := s.Checkpoint()
	stepStore(s, 0x5000, 1)
	s.ReleaseBefore(sn)
	if s.UndoLen() != 1 {
		t.Errorf("undo len = %d, want 1", s.UndoLen())
	}
	// Rollback to the surviving checkpoint must still work.
	s.Rollback(sn)
	if got := s.Mem().Read(0x5000); got != 0 {
		t.Errorf("mem = %d, want 0", got)
	}
	if got := s.Mem().Read(8 * 50); got != 50 {
		t.Errorf("released history disturbed: mem = %d, want 50", got)
	}
}

// modelSnap is the rollback model's full-state copy at one undo-log
// position.
type modelSnap struct {
	sn    Snapshot
	pos   int // undo records written before the snapshot, net of rollbacks
	regs  [isa.NumRegs]int64
	mem   map[uint64]int64
	calls []int
}

func (m *modelSnap) clone() *modelSnap {
	c := *m
	c.mem = make(map[uint64]int64, len(m.mem))
	for a, v := range m.mem {
		c.mem[a] = v
	}
	c.calls = append([]int(nil), m.calls...)
	return &c
}

// Property: over arbitrary interleavings of StepAt steps (register writes,
// loads, stores, calls and returns) with Checkpoint, ReleaseBefore and
// Rollback (to live and to released snapshots), the state matches a model
// that keeps a full-state copy per snapshot. Rolling back below the release
// mark restores the state at the mark; UndoLen counts the records written
// since it. Logs grow to hundreds of records, so releases both leave a dead
// prefix in place and cross the point where it is compacted away.
func TestRollbackProperty(t *testing.T) {
	b := program.NewBuilder("m")
	b.Here("main")
	b.EmitTo(isa.Inst{Op: isa.OpCall}, "fn") // pc 0: call, pushes 1
	b.Emit(isa.Inst{Op: isa.OpHalt})
	b.Here("fn")
	b.Emit(isa.Inst{Op: isa.OpRet}) // pc 2: return
	// pc 3 on: register writes, loads and stores on 64 words, r0 included.
	gen := rand.New(rand.NewSource(1))
	for i := 0; i < 192; i++ {
		rd, rs := isa.Reg(gen.Intn(isa.NumRegs)), isa.Reg(gen.Intn(isa.NumRegs))
		addr := int64(gen.Intn(64)) * 8
		switch i % 3 {
		case 0:
			b.Emit(isa.Inst{Op: isa.OpAddI, Rd: rd, Rs1: rs, Imm: gen.Int63()})
		case 1:
			b.Emit(isa.Inst{Op: isa.OpLoad, Rd: rd, Imm: addr})
		default:
			b.Emit(isa.Inst{Op: isa.OpStore, Rs2: rs, Imm: addr})
		}
	}
	b.Entry("main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const callPC, retPC, writesPC = 0, 2, 3
	var sawDead, sawCompact bool
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewState(p)
		cur := &modelSnap{sn: s.Checkpoint(), mem: map[uint64]int64{}}
		released := cur.clone()
		snaps := []*modelSnap{cur.clone()}
		touched := map[uint64]bool{}
		for op := 0; op < 3000; op++ {
			what := rng.Intn(16)
			switch {
			case what < 7:
				pc := writesPC + rng.Intn(len(p.Code)-writesPC)
				step(s, pc)
				in := p.Code[pc]
				switch addr := uint64(in.Imm); {
				case in.Op == isa.OpStore:
					cur.mem[addr] = cur.regs[in.Rs2]
					touched[addr] = true
					cur.pos++
				case in.Rd == isa.ZeroReg:
					// discarded and not logged
				case in.Op == isa.OpLoad:
					cur.regs[in.Rd] = cur.mem[addr]
					cur.pos++
				default:
					cur.regs[in.Rd] = cur.regs[in.Rs1] + in.Imm
					cur.pos++
				}
			case what < 8:
				step(s, callPC)
				cur.calls = append(cur.calls, callPC+1)
				cur.pos++
			case what < 9:
				step(s, retPC)
				if n := len(cur.calls); n > 0 {
					cur.calls = cur.calls[:n-1]
					cur.pos++
				}
			case what < 11:
				cur.sn = s.Checkpoint()
				snaps = append(snaps, cur.clone())
			case what < 14:
				// Release mostly recent snapshots, as retirement does.
				i := len(snaps) - 1 - rng.Intn(min(len(snaps), 8))
				base := s.undoBase
				s.ReleaseBefore(snaps[i].sn)
				if snaps[i].pos > released.pos {
					released = snaps[i].clone()
				}
				sawDead = sawDead || s.undoDead > 0
				// The base moving while live records remain is a compaction.
				sawCompact = sawCompact || (s.undoBase > base && len(s.undo) > 0)
			case what < 15:
				target := snaps[rng.Intn(len(snaps))]
				s.Rollback(target.sn)
				if target.pos < released.pos {
					target = released
				}
				cur = target.clone()
				keep := snaps[:0]
				for _, sn := range snaps {
					if sn.pos <= cur.pos {
						keep = append(keep, sn)
					}
				}
				snaps = keep
			default:
				cur.sn = s.Checkpoint()
				s.ReleaseBefore(cur.sn)
				released = cur.clone()
				snaps = append(snaps, cur.clone())
			}
			if s.Regs != cur.regs || s.CallDepth() != len(cur.calls) || s.UndoLen() != cur.pos-released.pos {
				t.Logf("seed %d op %d: regs equal %v, call depth %d want %d, undo %d want %d", seed, op,
					s.Regs == cur.regs, s.CallDepth(), len(cur.calls), s.UndoLen(), cur.pos-released.pos)
				return false
			}
			for a := range touched {
				if got := s.Mem().Read(a); got != cur.mem[a] {
					t.Logf("seed %d op %d: mem[%#x] = %d, want %d", seed, op, a, got, cur.mem[a])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	if !sawDead || !sawCompact {
		t.Errorf("released prefix kept %v, compacted %v; want both exercised", sawDead, sawCompact)
	}
}

func TestMemoryAlignment(t *testing.T) {
	m := NewMemory()
	m.Write(17, 5) // aligns down to 16
	if m.Read(16) != 5 || m.Read(23) != 5 {
		t.Error("unaligned access must alias the containing word")
	}
	if m.Read(24) != 0 {
		t.Error("adjacent word must be independent")
	}
}

func TestMemoryZeroWriteDoesNotAllocate(t *testing.T) {
	m := NewMemory()
	m.Write(0x100000, 0)
	if m.Pages() != 0 {
		t.Errorf("pages = %d, want 0", m.Pages())
	}
	m.Write(0x100000, 1)
	if m.Pages() != 1 {
		t.Errorf("pages = %d, want 1", m.Pages())
	}
}

func TestTraceStreamsSteps(t *testing.T) {
	p := buildLoop(t)
	var condBranches, taken int
	steps, halted := Trace(p, 10000, func(si *StepInfo) bool {
		if si.Inst.IsCondBranch() {
			condBranches++
			if si.Taken {
				taken++
			}
		}
		return true
	})
	if !halted {
		t.Fatal("trace did not reach halt")
	}
	if condBranches != 5 || taken != 4 {
		t.Errorf("branches=%d taken=%d, want 5 taken 4", condBranches, taken)
	}
	if steps == 0 {
		t.Error("no steps recorded")
	}
}

func TestTraceEarlyStop(t *testing.T) {
	p := buildLoop(t)
	n := 0
	steps, halted := Trace(p, 10000, func(*StepInfo) bool {
		n++
		return n < 3
	})
	if halted || steps != 3 {
		t.Errorf("steps=%d halted=%v", steps, halted)
	}
}

func TestStateAccessors(t *testing.T) {
	p := buildLoop(t)
	s := NewState(p)
	if s.Program() != p {
		t.Error("Program accessor")
	}
	step(s, 0)
	if s.Steps() != 1 {
		t.Errorf("Steps = %d", s.Steps())
	}
}

func TestRollbackBelowReleaseMarkClamps(t *testing.T) {
	s := NewState(writesProg(t))
	stepStore(s, 0, 1)
	early := s.Checkpoint()
	stepStore(s, 0, 2)
	late := s.Checkpoint()
	s.ReleaseBefore(late)
	// Rolling back to a released snapshot clamps at the release point
	// rather than corrupting the log.
	s.Rollback(early)
	if got := s.Mem().Read(0); got != 2 {
		t.Errorf("mem = %d, want 2 (history released)", got)
	}
	// ReleaseBefore past the end is also safe.
	stepStore(s, 0, 3)
	s.ReleaseBefore(Snapshot{undoMark: 1 << 40})
	if s.UndoLen() != 0 {
		t.Errorf("undo = %d", s.UndoLen())
	}
}

// TestRenewStateMatchesNew: state renewed from a used one — a page
// outside the next program's image, a stale word beside that image on a
// page both map, registers, a call stack and a live undo log — equals the
// next program's new state, page for page and word for word, also after
// a write maps a page outside the image (taking back the stale page).
func TestRenewStateMatchesNew(t *testing.T) {
	a := writesProg(t, dataWord{0x1000, 7}, dataWord{0x9000, 8})
	b := buildLoop(t, dataWord{0x1008, 9}, dataWord{0x20000, 10})
	old := NewState(a)
	old.Run(100)
	stepStore(old, 0x40000, 11)
	stepStore(old, 0x1010, 12)
	stepReg(old, 3, 13)
	step(old, len(a.Code)) // off-image: counts a step
	old.callStack = append(old.callStack, 5)
	got, want := RenewState(old, b), NewState(b)
	if got.Regs != want.Regs || len(got.callStack) != len(want.callStack) ||
		got.UndoLen() != want.UndoLen() || got.Steps() != want.Steps() ||
		got.Checkpoint() != want.Checkpoint() {
		t.Fatalf("renewed state differs: regs %v calls %v undo %d steps %d mark %v; want %v %v %d %d %v",
			got.Regs, got.callStack, got.UndoLen(), got.Steps(), got.Checkpoint(),
			want.Regs, want.callStack, want.UndoLen(), want.Steps(), want.Checkpoint())
	}
	samePages := func(when string) {
		t.Helper()
		if got.Mem().Pages() != want.Mem().Pages() {
			t.Fatalf("%s: renewed state maps %d pages, new state %d", when, got.Mem().Pages(), want.Mem().Pages())
		}
		for pg, wp := range want.mem.pages {
			if gp := got.mem.pages[pg]; gp == nil || *gp != *wp {
				t.Errorf("%s: page %d differs from the new state's", when, pg)
			}
		}
	}
	samePages("renewed")
	got.mem.Write(0x80008, 14)
	want.mem.Write(0x80008, 14)
	samePages("after a write off the image")
}
