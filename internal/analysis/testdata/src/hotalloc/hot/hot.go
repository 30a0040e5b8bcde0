// Package hot is a tcvet test fixture for the hotalloc analyzer: one
// //tc:hotpath function per allocation source, plus the allowed reuse
// idioms. Loaded by the analysis tests only.
package hot

import "fmt"

// State carries preallocated scratch buffers, PR 3 style.
type State struct {
	buf  []int
	out  []int
	sink any
}

// Bad exhibits every per-call allocation source the analyzer flags.
//
//tc:hotpath
func (s *State) Bad(vs []int) []int {
	f := func() int { return 1 }
	_ = f
	p := &State{}
	_ = p
	tmp := []int{1, 2, 3}
	_ = tmp
	m := map[int]int{}
	_ = m
	grown := append(vs, 4)
	s.sink = vs
	_ = fmt.Sprint()
	return grown
}

// Good uses only the allowed reuse forms: growing in place, reslicing a
// persistent buffer, and panic (whose argument boxes only on the dead
// path).
//
//tc:hotpath
func (s *State) Good(vs []int) {
	s.out = append(s.out[:0], vs...)
	local := append(s.buf[:0], vs...)
	if len(local) > cap(s.buf) {
		panic("hot: scratch buffer overflow")
	}
}

// Boundary allocates by design — the result outlives the call — and
// demonstrates declaration-scope suppression: the directive in the doc
// comment covers the whole declaration.
//
//tc:hotpath
//tcvet:ignore hotalloc fixture: ownership transfer at the boundary
func (s *State) Boundary(vs []int) *State {
	return &State{out: append([]int(nil), vs...)}
}

// Big is 88 bytes under gc/amd64, past the 64-byte literal copy limit.
type Big struct {
	a, b, c, d, e, f, g, h, i, j, k int64
}

// Small is exactly at the copy limit.
type Small struct {
	a, b, c, d, e, f, g, h int64
}

// Holder keeps Big values behind a pointer, in a slice and in a field.
type Holder struct {
	big  Big
	bigs []Big
	ptr  *Big
}

// BadCopy stores non-empty Big literals through a pointer, an index and a
// field, and appends one: each is built in a temporary and block-copied.
//
//tc:hotpath
func (h *Holder) BadCopy(v int64) {
	*h.ptr = Big{a: v}
	h.bigs[0] = Big{a: v}
	h.big = Big{a: v}
	h.bigs = append(h.bigs, Big{a: v})
}

// GoodCopy clears in place and fills fields, appends a zero value, builds
// a literal in a plain variable, and stores a literal at the limit.
//
//tc:hotpath
func (h *Holder) GoodCopy(v int64, s *Small) int64 {
	*h.ptr = Big{}
	h.ptr.a = v
	h.bigs = append(h.bigs, Big{})
	h.bigs[len(h.bigs)-1].a = v
	local := Big{a: v}
	*s = Small{a: v}
	return local.a
}

// Inst has five one-byte fields and a word: 16 bytes, but more fields
// than gc keeps in registers.
type Inst struct {
	op, cond, rd, rs1, rs2 uint8
	imm                    int64
}

// Pair is two words: gc keeps it in registers.
type Pair struct {
	a, b int64
}

// Wide has four fields, the limit, but 40 bytes.
type Wide struct {
	a, b, c int64
	d       [2]int64
}

// Packed is 24 bytes in two fields, but one of them is an array of two.
type Packed struct {
	p Pair
	r [2]int32
}

// BadByValue takes and returns values gc cannot keep in registers: a
// receiver over 32 bytes, a struct of six fields, a struct over 32 bytes,
// an array of more than one element and a struct with such an array.
//
//tc:hotpath
func (w Wide) BadByValue(in Inst, big Big, regs [2]int64) Packed {
	var out Packed
	out.p.a = w.a + int64(in.op) + big.a + regs[0]
	return out
}

// GoodByRef passes the same values by reference, and small ones by value:
// a two-word struct, a one-element array of one and a single word.
//
//tc:hotpath
func (w *Wide) GoodByRef(in *Inst, big *Big, p Pair, one [1]Pair, n int64) Pair {
	return Pair{a: w.a + int64(in.op) + big.a + p.a + one[0].b + n}
}
