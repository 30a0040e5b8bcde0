package exec

import (
	"testing"

	"tracecache/internal/isa"
	"tracecache/internal/program"
)

// grow executes reg-writing steps until the undo log holds n records.
func grow(s *State, p int, n int) {
	for s.UndoLen() < n {
		step(s, p)
	}
}

func TestCompactToReleasesOversizedLog(t *testing.T) {
	p := buildLoop(t)
	s := NewState(p)
	grow(s, 0, undoRetainCap+100) // pc 0 is a register write
	sn := s.Checkpoint()
	s.CompactTo(sn)
	if s.UndoLen() != 0 {
		t.Fatalf("undo length = %d, want 0", s.UndoLen())
	}
	if cap(s.undo) != 0 {
		t.Errorf("oversized undo capacity retained: %d", cap(s.undo))
	}
	// The state must remain fully usable: new snapshots roll back.
	before := s.Regs[1]
	sn2 := s.Checkpoint()
	step(s, 0)
	s.Rollback(sn2)
	if s.Regs[1] != before {
		t.Error("rollback after compaction lost register state")
	}
}

func TestCompactToKeepsModestCapacity(t *testing.T) {
	p := buildLoop(t)
	s := NewState(p)
	grow(s, 0, 100)
	s.CompactTo(s.Checkpoint())
	if s.UndoLen() != 0 {
		t.Fatalf("undo length = %d, want 0", s.UndoLen())
	}
	if cap(s.undo) == 0 {
		t.Error("modest capacity freed; steady state should reuse it")
	}
}

// TestCompactToPartialRelease verifies CompactTo with a mid-log snapshot
// behaves like ReleaseBefore: older records drop, newer ones stay valid.
func TestCompactToPartialRelease(t *testing.T) {
	p := buildLoop(t)
	s := NewState(p)
	step(s, 0) // r1 = 5
	mid := s.Checkpoint()
	step(s, 1) // r2 = 0
	step(s, 0)
	s.CompactTo(mid)
	if s.UndoLen() != 2 {
		t.Fatalf("undo length = %d, want 2", s.UndoLen())
	}
	s.Rollback(mid)
	if s.Regs[1] != 5 {
		t.Errorf("r1 = %d, want 5 after rollback to mid", s.Regs[1])
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
