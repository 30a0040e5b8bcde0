package bpred

// HybridCtx carries update state for the hybrid predictor from fetch to
// retire.
type HybridCtx struct {
	GIndex  uint32 // gshare table index
	SIndex  uint32 // selector index
	PC      int
	GPred   bool
	PPred   bool
	UsedPAs bool
}

// Hybrid is the aggressive single-branch predictor used with the
// instruction-cache-only front end (Section 3): a gshare component with 15
// bits of global history, a PAs component with 15 bits of local history
// and a 4K-entry branch history table, and a 2-bit selector indexed with
// the gshare index.
type Hybrid struct {
	gshare   []Counter2
	gmask    uint32
	selector []Counter2
	pas      *PAs
	ctr      Counters
}

// NewHybrid builds the hybrid predictor with the paper's geometry.
func NewHybrid() *Hybrid { return RenewHybrid(nil) }

// RenewHybrid is NewHybrid built in old's tables (its PAs component's
// included), each where it has the paper's size. old may be nil; a
// renewed old must not be used again.
func RenewHybrid(old *Hybrid) *Hybrid { return renewHybrid(old, 1<<15, 1<<12, 1<<15) }

// NewHybridSized builds a hybrid predictor with a gshare/selector table of
// gsize counters, a PAs branch history table of bhtSize entries, and a PAs
// pattern history table of psize counters.
func NewHybridSized(gsize, bhtSize, psize int) *Hybrid {
	return renewHybrid(nil, gsize, bhtSize, psize)
}

func renewHybrid(old *Hybrid, gsize, bhtSize, psize int) *Hybrid {
	var h Hybrid
	var pas *PAs
	if old != nil {
		h.gshare, h.selector, pas = old.gshare, old.selector, old.pas
	}
	h.gshare = table(h.gshare, gsize, weaklyNotTaken)
	h.gmask = uint32(gsize - 1)
	h.selector = table(h.selector, gsize, weaklyNotTaken)
	h.pas = renewPAs(pas, bhtSize, psize)
	return &h
}

// Predict returns the hybrid prediction for the branch at pc under the
// given global history.
func (h *Hybrid) Predict(pc int, hist uint64) (bool, HybridCtx) {
	h.ctr.Predictions++
	gi := (uint32(pc) ^ uint32(hist)) & h.gmask
	g := h.gshare[gi].Taken()
	p := h.pas.Predict(pc)
	usePAs := h.selector[gi].Taken()
	pred := g
	if usePAs {
		pred = p
	}
	return pred, HybridCtx{GIndex: gi, SIndex: gi, PC: pc, GPred: g, PPred: p, UsedPAs: usePAs}
}

// Update trains both components and the selector with the branch outcome.
func (h *Hybrid) Update(ctx HybridCtx, taken bool) {
	h.ctr.Updates++
	h.gshare[ctx.GIndex] = h.gshare[ctx.GIndex].Update(taken)
	h.pas.Update(ctx.PC, taken)
	if ctx.GPred != ctx.PPred {
		// Train the selector toward the component that was right.
		h.selector[ctx.SIndex] = h.selector[ctx.SIndex].Update(ctx.PPred == taken)
	}
}

// Counters returns the hybrid's activity telemetry.
func (h *Hybrid) Counters() Counters { return h.ctr }

// PAs is a per-address two-level predictor: a branch history table of
// local histories indexing a shared pattern history table.
type PAs struct {
	bht      []uint32
	bhtMask  uint32
	pht      []Counter2
	phtMask  uint32
	histBits uint
}

// NewPAs builds a PAs predictor with bhtSize local-history entries and a
// pattern history table of phtSize counters (both powers of two).
func NewPAs(bhtSize, phtSize int) *PAs { return renewPAs(nil, bhtSize, phtSize) }

func renewPAs(old *PAs, bhtSize, phtSize int) *PAs {
	p := &PAs{
		bhtMask:  uint32(bhtSize - 1),
		phtMask:  uint32(phtSize - 1),
		histBits: log2(phtSize),
	}
	if old != nil {
		p.bht, p.pht = old.bht, old.pht
	}
	p.bht = table(p.bht, bhtSize, 0)
	p.pht = table(p.pht, phtSize, weaklyNotTaken)
	return p
}

// Predict returns the PAs prediction for the branch at pc.
func (p *PAs) Predict(pc int) bool {
	lh := p.bht[uint32(pc)&p.bhtMask]
	return p.pht[lh&p.phtMask].Taken()
}

// Update trains the pattern entry selected by the current local history and
// then shifts the outcome into the local history.
func (p *PAs) Update(pc int, taken bool) {
	bi := uint32(pc) & p.bhtMask
	lh := p.bht[bi]
	pi := lh & p.phtMask
	p.pht[pi] = p.pht[pi].Update(taken)
	lh <<= 1
	if taken {
		lh |= 1
	}
	p.bht[bi] = lh & ((1 << p.histBits) - 1)
}

// IndirectPredictor predicts indirect-jump targets with a last-target
// table.
type IndirectPredictor struct {
	targets []int
	valid   []bool
	mask    uint32
}

// NewIndirectPredictor builds a last-target table with size entries (a
// power of two).
func NewIndirectPredictor(size int) *IndirectPredictor { return RenewIndirectPredictor(nil, size) }

// RenewIndirectPredictor is NewIndirectPredictor built in old's table
// when that has size entries. old may be nil; a renewed old must not be
// used again.
func RenewIndirectPredictor(old *IndirectPredictor, size int) *IndirectPredictor {
	ip := &IndirectPredictor{mask: uint32(size - 1)}
	if old != nil {
		ip.targets, ip.valid = old.targets, old.valid
	}
	ip.targets = table(ip.targets, size, 0)
	ip.valid = table(ip.valid, size, false)
	return ip
}

// Predict returns the predicted target for the indirect jump at pc and
// whether the table has an entry.
func (ip *IndirectPredictor) Predict(pc int) (int, bool) {
	i := uint32(pc) & ip.mask
	return ip.targets[i], ip.valid[i]
}

// Update records the resolved target.
func (ip *IndirectPredictor) Update(pc, target int) {
	i := uint32(pc) & ip.mask
	ip.targets[i] = target
	ip.valid[i] = true
}
