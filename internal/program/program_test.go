package program

import (
	"slices"
	"strings"
	"testing"

	"tracecache/internal/isa"
)

func tiny(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("tiny")
	b.Here("main")
	b.Emit(isa.Inst{Op: isa.OpLoadI, Rd: 1, Imm: 3})
	b.Here("loop")
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

func TestBuilderResolvesBackwardLabel(t *testing.T) {
	p := tiny(t)
	if p.Code[2].Target != 1 {
		t.Errorf("loop branch target = %d, want 1", p.Code[2].Target)
	}
	if p.Entry != 0 {
		t.Errorf("entry = %d, want 0", p.Entry)
	}
}

func TestBuilderResolvesForwardLabel(t *testing.T) {
	b := NewBuilder("fwd")
	b.EmitTo(isa.Inst{Op: isa.OpJmp}, "end")
	b.Emit(isa.Inst{Op: isa.OpNop})
	b.Here("end")
	b.Emit(isa.Inst{Op: isa.OpHalt})
	b.Entry("end")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Target != 2 {
		t.Errorf("forward target = %d, want 2", p.Code[0].Target)
	}
	if p.Entry != 2 {
		t.Errorf("entry = %d, want 2", p.Entry)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.EmitTo(isa.Inst{Op: isa.OpJmp}, "nowhere")
	b.Emit(isa.Inst{Op: isa.OpHalt})
	if _, err := b.Build(); err == nil {
		t.Fatal("undefined label accepted")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("dup")
	b.Here("x")
	b.Emit(isa.Inst{Op: isa.OpHalt})
	b.Here("x")
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate label accepted")
	}
}

func TestValidateRejectsEmptyAndNoHalt(t *testing.T) {
	p := New("empty")
	if err := p.Validate(); err == nil {
		t.Error("empty program accepted")
	}
	p.Code = []isa.Inst{{Op: isa.OpNop}}
	if err := p.Validate(); err == nil {
		t.Error("program without halt accepted")
	}
	p.Code = []isa.Inst{{Op: isa.OpHalt}}
	if err := p.Validate(); err != nil {
		t.Errorf("minimal program rejected: %v", err)
	}
	p.Entry = 5
	if err := p.Validate(); err == nil {
		t.Error("out-of-range entry accepted")
	}
}

// TestBuilderDataWords: Word builds the image as pages sorted by number,
// each once, whatever order the words come in; a later write to a word
// wins; words on either side of a page boundary land on their own pages
// at their own addresses; and a zero written off the image maps no page.
func TestBuilderDataWords(t *testing.T) {
	const pageBytes = PageWords * 8
	boundary := uint64(5 * pageBytes)
	words := []struct {
		addr uint64
		v    int64
	}{
		{0x1000, 42},       // page 1
		{boundary, 3},      // first word of page 5
		{0x1008, -7},       // page 1 again, after page 5
		{boundary - 8, -1}, // last word of page 4
		{0x1000, 43},       // overwrites 42
		{0x20000, 0},       // zero on an unmapped page
		{0x1012, 9},        // unaligned: lands at 0x1010
	}
	b := NewBuilder("data")
	for _, w := range words {
		b.Word(w.addr, w.v)
	}
	b.Emit(isa.Inst{Op: isa.OpHalt})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var nums []uint64
	for _, pg := range p.Data {
		nums = append(nums, pg.Num)
	}
	if want := []uint64{1, 4, 5}; !slices.Equal(nums, want) {
		t.Fatalf("image pages %v, want %v", nums, want)
	}
	// word reads the image at a byte address, zero off its pages.
	word := func(addr uint64) int64 {
		for _, pg := range p.Data {
			if pg.Num == addr/pageBytes {
				return pg.Words[addr%pageBytes/8]
			}
		}
		return 0
	}
	for addr, want := range map[uint64]int64{
		0x1000: 43, 0x1008: -7, 0x1010: 9, 0x1018: 0,
		boundary - 8: -1, boundary: 3, boundary + 8: 0, 0x20000: 0,
	} {
		if got := word(addr); got != want {
			t.Errorf("word %#x = %d, want %d", addr, got, want)
		}
	}
}

func TestDisassembleIncludesSymbols(t *testing.T) {
	p := tiny(t)
	asm := p.Disassemble()
	for _, want := range []string{"main:", "loop:", "br.gt r1, r0, @1", "halt"} {
		if !strings.Contains(asm, want) {
			t.Errorf("disassembly missing %q:\n%s", want, asm)
		}
	}
}

func TestStats(t *testing.T) {
	b := NewBuilder("stats")
	b.Here("f")
	b.Emit(isa.Inst{Op: isa.OpLoad, Rd: 1, Rs1: 2})
	b.Emit(isa.Inst{Op: isa.OpStore, Rs1: 2, Rs2: 1})
	b.EmitTo(isa.Inst{Op: isa.OpBr, Cond: isa.CondEQ}, "f")
	b.EmitTo(isa.Inst{Op: isa.OpCall}, "f")
	b.Emit(isa.Inst{Op: isa.OpRet})
	b.Emit(isa.Inst{Op: isa.OpJmpInd, Rs1: 3})
	b.Emit(isa.Inst{Op: isa.OpTrap})
	b.EmitTo(isa.Inst{Op: isa.OpJmp}, "f")
	b.Emit(isa.Inst{Op: isa.OpHalt})
	b.Entry("f")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.CondBranches != 1 || s.Calls != 1 || s.Returns != 1 || s.Indirects != 1 ||
		s.Traps != 1 || s.Jumps != 1 || s.Loads != 1 || s.Stores != 1 {
		t.Errorf("stats = %+v", s)
	}
	// Blocks: [ld,st,br], [call], [ret], [jr], [trap], [jmp], [halt]
	if len(s.BlockSizes) != 7 {
		t.Errorf("block count = %d, want 7 (%v)", len(s.BlockSizes), s.BlockSizes)
	}
	if got := s.MeanBlockSize(); got <= 1 || got > 2 {
		t.Errorf("mean block size = %v", got)
	}
}

func TestMeanBlockSizeEmpty(t *testing.T) {
	var s StaticStats
	if s.MeanBlockSize() != 0 {
		t.Error("empty mean should be 0")
	}
}
