package program

import (
	"fmt"
	"slices"
	"sort"

	"tracecache/internal/isa"
)

// Builder assembles a Program incrementally, with label resolution for
// forward branch targets.
type Builder struct {
	prog    *Program
	labels  map[string]int
	patches []patch
	errs    []error
}

type patch struct {
	pc    int
	label string
}

// NewBuilder returns a Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		prog:   New(name),
		labels: make(map[string]int),
	}
}

// PC returns the index of the next instruction to be emitted.
func (b *Builder) PC() int { return len(b.prog.Code) }

// Emit appends an instruction and returns its index.
func (b *Builder) Emit(in isa.Inst) int {
	pc := len(b.prog.Code)
	b.prog.Code = append(b.prog.Code, in)
	return pc
}

// Here defines a label at the current PC.
func (b *Builder) Here(label string) {
	if _, dup := b.labels[label]; dup {
		b.errs = append(b.errs, fmt.Errorf("duplicate label %q", label))
		return
	}
	b.labels[label] = b.PC()
	b.prog.Label(b.PC(), label)
}

// EmitTo appends a control instruction whose target is the given label,
// which may be defined later.
func (b *Builder) EmitTo(in isa.Inst, label string) int {
	pc := b.Emit(in)
	if target, ok := b.labels[label]; ok {
		b.prog.Code[pc].Target = target
	} else {
		b.patches = append(b.patches, patch{pc: pc, label: label})
	}
	return pc
}

// Word sets the initial data word at the given byte address (aligned
// down to 8 bytes); a later write to the same word wins. A zero written
// outside the image's pages maps no page, since unmapped memory reads
// zero.
func (b *Builder) Word(addr uint64, v int64) {
	w := addr >> 3
	num := w >> PageShift
	data := b.prog.Data
	i := sort.Search(len(data), func(i int) bool { return data[i].Num >= num })
	if i == len(data) || data[i].Num != num {
		if v == 0 {
			return
		}
		b.prog.Data = slices.Insert(data, i, Page{Num: num})
	}
	b.prog.Data[i].Words[w&(PageWords-1)] = v
}

// Entry marks the program entry point at the given label.
func (b *Builder) Entry(label string) {
	if pc, ok := b.labels[label]; ok {
		b.prog.Entry = pc
		return
	}
	b.patches = append(b.patches, patch{pc: -1, label: label})
}

// Build resolves all pending labels, validates, and returns the program.
func (b *Builder) Build() (*Program, error) {
	for _, p := range b.patches {
		target, ok := b.labels[p.label]
		if !ok {
			return nil, fmt.Errorf("program %q: undefined label %q", b.prog.Name, p.label)
		}
		if p.pc == -1 {
			b.prog.Entry = target
		} else {
			b.prog.Code[p.pc].Target = target
		}
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}
