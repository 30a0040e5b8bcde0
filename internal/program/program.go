// Package program defines the executable image consumed by the simulator:
// a code segment of decoded instructions, an initial data image of
// memory pages, and optional symbol information for diagnostics.
package program

import (
	"fmt"
	"strings"
	"sync"

	"tracecache/internal/isa"
)

// The page format of data memory, shared by the initial image and the
// executing memory (exec.Memory): a page holds PageWords 8-byte words,
// and a word index (byte address >> 3) shifted right by PageShift is its
// page number.
const (
	PageShift = 9
	PageWords = 1 << PageShift
)

// Page is one page of the initial data image.
type Page struct {
	Num   uint64 // page number: byte address >> (3 + PageShift)
	Words [PageWords]int64
}

// Program is a complete executable image. The PC space is the index space
// of Code; data addresses live in a separate byte-addressed space whose
// initial contents are given by Data.
type Program struct {
	Name  string
	Code  []isa.Inst
	Entry int
	// Data is the initial memory image: every page a nonzero word was
	// written to, sorted by page number, each once. Memory outside them
	// reads zero. Builder.Word is its writer.
	Data []Page
	// Symbols maps instruction indices to labels (function entries, loop
	// heads) for disassembly output.
	Symbols map[int]string

	// hashOnce/hashVal memoize Hash: programs are immutable after
	// construction (execution state copies Data; symbols are excluded),
	// and trace eligibility checks hash on every sweep point.
	hashOnce sync.Once
	hashVal  uint64
}

// New returns an empty program with an initialized symbol map.
func New(name string) *Program {
	return &Program{
		Name:    name,
		Symbols: make(map[int]string),
	}
}

// Validate checks that every instruction is well formed, the entry point is
// in range, and the program contains a halt (so a run can terminate).
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("program %q: empty code segment", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Code) {
		return fmt.Errorf("program %q: entry %d out of range", p.Name, p.Entry)
	}
	halt := false
	for pc, in := range p.Code {
		if err := in.Validate(len(p.Code)); err != nil {
			return fmt.Errorf("program %q: pc %d: %w", p.Name, pc, err)
		}
		if in.Op == isa.OpHalt {
			halt = true
		}
	}
	if !halt {
		return fmt.Errorf("program %q: no halt instruction", p.Name)
	}
	return nil
}

// Hash returns a content hash of the program: FNV-64a over the code
// segment, entry point, and initial data image (symbols and the display
// name are excluded — they do not affect execution). Two programs with
// equal hashes produce the same retired instruction stream for the same
// budget, which is what the trace store keys on. The hash is computed
// once and memoized; the program must not change after the first call.
func (p *Program) Hash() uint64 {
	p.hashOnce.Do(func() { p.hashVal = p.hashContent() })
	return p.hashVal
}

func (p *Program) hashContent() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(p.Entry))
	mix(uint64(len(p.Code)))
	for _, in := range p.Code {
		mix(uint64(in.Op) | uint64(in.Cond)<<8 | uint64(in.Rd)<<16 |
			uint64(in.Rs1)<<24 | uint64(in.Rs2)<<32)
		mix(uint64(in.Imm))
		mix(uint64(in.Target))
	}
	for i := range p.Data {
		pg := &p.Data[i]
		mix(pg.Num)
		for _, w := range pg.Words {
			mix(uint64(w))
		}
	}
	return h
}

// Label records a symbol for the given instruction index.
func (p *Program) Label(pc int, name string) {
	if p.Symbols == nil {
		p.Symbols = make(map[int]string)
	}
	p.Symbols[pc] = name
}

// Disassemble renders the code segment as an assembly listing.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s, %d instructions, entry @%d\n", p.Name, len(p.Code), p.Entry)
	for pc, in := range p.Code {
		if sym, ok := p.Symbols[pc]; ok {
			fmt.Fprintf(&b, "%s:\n", sym)
		}
		fmt.Fprintf(&b, "%6d: %s\n", pc, in)
	}
	return b.String()
}

// StaticStats summarises the static properties of a program.
type StaticStats struct {
	Insts        int
	CondBranches int
	Jumps        int
	Calls        int
	Returns      int
	Indirects    int
	Traps        int
	Loads        int
	Stores       int
	// BlockSizes is the distribution of static basic-block lengths, where
	// a block runs from a leader to the next control instruction.
	BlockSizes []int
}

// Stats computes static statistics over the code segment.
func (p *Program) Stats() StaticStats {
	var s StaticStats
	s.Insts = len(p.Code)
	blockLen := 0
	for _, in := range p.Code {
		blockLen++
		switch in.Op {
		case isa.OpBr:
			s.CondBranches++
		case isa.OpJmp:
			s.Jumps++
		case isa.OpCall:
			s.Calls++
		case isa.OpRet:
			s.Returns++
		case isa.OpJmpInd:
			s.Indirects++
		case isa.OpTrap:
			s.Traps++
		case isa.OpLoad:
			s.Loads++
		case isa.OpStore:
			s.Stores++
		}
		if in.IsControl() {
			s.BlockSizes = append(s.BlockSizes, blockLen)
			blockLen = 0
		}
	}
	if blockLen > 0 {
		s.BlockSizes = append(s.BlockSizes, blockLen)
	}
	return s
}

// MeanBlockSize returns the mean static basic-block length.
func (s StaticStats) MeanBlockSize() float64 {
	if len(s.BlockSizes) == 0 {
		return 0
	}
	total := 0
	for _, n := range s.BlockSizes {
		total += n
	}
	return float64(total) / float64(len(s.BlockSizes))
}
