// Package bpred implements the branch prediction hardware of the paper's
// fetch mechanisms:
//
//   - the gshare tree multiple-branch predictor used with the trace cache
//     (16K entries of 7 two-bit counters, up to three predictions per
//     cycle; Figure 3 of the paper),
//   - the restructured three-table predictor used once branches are
//     promoted (64K/16K/8K two-bit counters; Section 4),
//   - the hybrid gshare+PAs predictor with a selector used by the
//     instruction-cache-only reference front end (Section 3), and
//   - a last-target predictor for indirect jumps.
//
// Returns are predicted by an ideal return address stack, which the fetch
// engine models directly.
package bpred

// Counter2 is a 2-bit saturating counter. Values 0..1 predict not taken,
// 2..3 predict taken.
type Counter2 uint8

// Taken returns the counter's prediction.
func (c Counter2) Taken() bool { return c >= 2 }

// Update moves the counter toward the outcome, saturating at 0 and 3.
func (c Counter2) Update(taken bool) Counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// weaklyNotTaken is the initial counter state.
const weaklyNotTaken Counter2 = 1

// table returns a table of n entries, each v: tb's storage when it holds
// n entries, new storage otherwise. It is every predictor table's one
// initialization, so a renewed table starts exactly as a new one.
func table[T comparable](tb []T, n int, v T) []T {
	if len(tb) != n {
		tb = make([]T, n)
		var zero T
		if v == zero {
			return tb
		}
	}
	for i := range tb {
		tb[i] = v
	}
	return tb
}

// History is a global branch history register of a fixed width. It is a
// value type: the fetch engine checkpoints it by copying.
type History struct {
	Bits uint
	Reg  uint64
}

// Push shifts an outcome into the history.
func (h *History) Push(taken bool) {
	h.Reg <<= 1
	if taken {
		h.Reg |= 1
	}
	h.Reg &= (1 << h.Bits) - 1
}

// PredCtx captures everything a predictor needs to update the counter that
// produced a prediction. It is carried with the branch from fetch to
// retire.
type PredCtx struct {
	Index uint32 // table index computed at prediction time
	Slot  uint8  // which of the (up to three) predictions this cycle
	Path  uint8  // predicted outcomes of earlier slots this cycle (bit i = slot i)
}

// Counters aggregates predictor activity telemetry: how many dynamic
// predictions the front end demanded (wrong path included) and how many
// training updates retired branches applied. The observability layer
// samples these at interval boundaries to report prediction-bandwidth
// demand over time.
type Counters struct {
	Predictions uint64 // dynamic predictions supplied
	Updates     uint64 // training updates applied
}

// MultiPredictor supplies conditional branch predictions for the trace
// cache front end.
type MultiPredictor interface {
	// Predict returns the prediction for the slot-th dynamic branch of
	// the current fetch. start is the fetch-group start PC (the paper's
	// tree predictor is indexed once per fetch by fetch address), brPC the
	// branch's own PC (used by per-branch predictors such as
	// SingleHybridMBP), hist the global history at fetch, and path the
	// predicted outcomes of earlier slots this cycle.
	Predict(start, brPC int, hist uint64, slot int, path uint8) (bool, PredCtx)
	// Update trains the counter that produced the prediction.
	Update(ctx PredCtx, taken bool)
	// MaxSlots returns the number of predictions available per cycle.
	MaxSlots() int
	// Counters returns the predictor's activity telemetry.
	Counters() Counters
}

// TreeMBP is the multiple branch predictor of Figure 3: a gshare-indexed
// pattern history table whose entries each hold seven 2-bit counters
// forming a depth-3 tree. Counter 0 predicts the first branch; counters
// 1-2 predict the second branch conditioned on the first prediction;
// counters 3-6 predict the third conditioned on the first two.
type TreeMBP struct {
	entries  [][7]Counter2
	mask     uint32
	histBits uint
	ctr      Counters
}

// NewTreeMBP builds the predictor with the given number of entries (a
// power of two; the paper uses 16K entries = 32KB of storage).
func NewTreeMBP(entries int) *TreeMBP { return RenewTreeMBP(nil, entries) }

// RenewTreeMBP is NewTreeMBP built in old's table when that has the given
// number of entries. old may be nil; a renewed old must not be used
// again.
func RenewTreeMBP(old *TreeMBP, entries int) *TreeMBP {
	var tb [][7]Counter2
	if old != nil {
		tb = old.entries
	}
	w := weaklyNotTaken
	return &TreeMBP{
		entries:  table(tb, entries, [7]Counter2{w, w, w, w, w, w, w}),
		mask:     uint32(entries - 1),
		histBits: log2(entries),
	}
}

func log2(n int) uint {
	var b uint
	for 1<<b < n {
		b++
	}
	return b
}

// counterFor returns the tree position for a slot given earlier predicted
// outcomes this cycle.
func counterFor(slot int, path uint8) int {
	switch slot {
	case 0:
		return 0
	case 1:
		return 1 + int(path&1)
	default:
		return 3 + int(path&3)
	}
}

// Predict implements MultiPredictor; the branch PC is ignored (the table
// is indexed by fetch address, per Figure 3).
func (t *TreeMBP) Predict(start, brPC int, hist uint64, slot int, path uint8) (bool, PredCtx) {
	t.ctr.Predictions++
	idx := (uint32(start) ^ uint32(hist)) & t.mask
	c := counterFor(slot, path)
	taken := t.entries[idx][c].Taken()
	return taken, PredCtx{Index: idx, Slot: uint8(slot), Path: path}
}

// Update implements MultiPredictor.
func (t *TreeMBP) Update(ctx PredCtx, taken bool) {
	t.ctr.Updates++
	c := counterFor(int(ctx.Slot), ctx.Path)
	e := &t.entries[ctx.Index&t.mask]
	e[c] = e[c].Update(taken)
}

// MaxSlots implements MultiPredictor.
func (t *TreeMBP) MaxSlots() int { return 3 }

// Counters implements MultiPredictor.
func (t *TreeMBP) Counters() Counters { return t.ctr }

// SplitMBP is the restructured predictor of Section 4: three independent
// gshare tables sized for the post-promotion demand (the paper uses
// 64K/16K/8K counters, 24KB total including storage savings relative to the
// baseline once the 8KB bias table is added).
type SplitMBP struct {
	tables [3][]Counter2
	masks  [3]uint32
	ctr    Counters
}

// NewSplitMBP builds the predictor with per-slot table sizes (powers of
// two).
func NewSplitMBP(first, second, third int) *SplitMBP { return RenewSplitMBP(nil, first, second, third) }

// RenewSplitMBP is NewSplitMBP built in old's tables, each where it has
// its slot's size. old may be nil; a renewed old must not be used again.
func RenewSplitMBP(old *SplitMBP, first, second, third int) *SplitMBP {
	s := &SplitMBP{}
	if old != nil {
		s.tables = old.tables
	}
	for i, n := range [3]int{first, second, third} {
		s.tables[i] = table(s.tables[i], n, weaklyNotTaken)
		s.masks[i] = uint32(n - 1)
	}
	return s
}

// Predict implements MultiPredictor; the branch PC is ignored (each table
// is indexed by fetch address).
func (s *SplitMBP) Predict(start, brPC int, hist uint64, slot int, path uint8) (bool, PredCtx) {
	s.ctr.Predictions++
	if slot > 2 {
		slot = 2
	}
	idx := (uint32(start) ^ uint32(hist)) & s.masks[slot]
	return s.tables[slot][idx].Taken(), PredCtx{Index: idx, Slot: uint8(slot), Path: path}
}

// Update implements MultiPredictor.
func (s *SplitMBP) Update(ctx PredCtx, taken bool) {
	s.ctr.Updates++
	slot := int(ctx.Slot)
	if slot > 2 {
		slot = 2
	}
	tb := s.tables[slot]
	idx := ctx.Index & s.masks[slot]
	tb[idx] = tb[idx].Update(taken)
}

// MaxSlots implements MultiPredictor.
func (s *SplitMBP) MaxSlots() int { return 3 }

// Counters implements MultiPredictor.
func (s *SplitMBP) Counters() Counters { return s.ctr }

// SingleHybridMBP adapts the aggressive hybrid single-branch predictor to
// the trace cache front end: one highly accurate prediction per cycle,
// indexed by the branch's own address. Section 4 suggests exactly this
// once branch promotion has collapsed prediction-bandwidth demand ("for an
// 8-wide machine ... promotion opens the possibility of using aggressive
// hybrid single branch prediction with the trace cache").
type SingleHybridMBP struct {
	h *Hybrid
}

// NewSingleHybridMBP wraps the hybrid predictor (which must use the
// default 2^15 gshare geometry so contexts pack into PredCtx).
func NewSingleHybridMBP(h *Hybrid) *SingleHybridMBP { return &SingleHybridMBP{h: h} }

// hybrid context packing inside PredCtx: Index holds the 15-bit gshare
// index in the low bits and the branch PC above; Path bits 0/1 hold the
// component predictions.
const singleHybridIndexBits = 15

// Predict implements MultiPredictor.
func (s *SingleHybridMBP) Predict(start, brPC int, hist uint64, slot int, path uint8) (bool, PredCtx) {
	if slot > 0 {
		return false, PredCtx{}
	}
	taken, hc := s.h.Predict(brPC, hist)
	ctx := PredCtx{Index: hc.GIndex | uint32(brPC)<<singleHybridIndexBits}
	if hc.GPred {
		ctx.Path |= 1
	}
	if hc.PPred {
		ctx.Path |= 2
	}
	return taken, ctx
}

// Update implements MultiPredictor.
func (s *SingleHybridMBP) Update(ctx PredCtx, taken bool) {
	gi := ctx.Index & (1<<singleHybridIndexBits - 1)
	pc := int(ctx.Index >> singleHybridIndexBits)
	s.h.Update(HybridCtx{
		GIndex: gi, SIndex: gi, PC: pc,
		GPred: ctx.Path&1 != 0, PPred: ctx.Path&2 != 0,
	}, taken)
}

// MaxSlots implements MultiPredictor.
func (s *SingleHybridMBP) MaxSlots() int { return 1 }

// Hybrid returns the wrapped hybrid predictor.
func (s *SingleHybridMBP) Hybrid() *Hybrid { return s.h }

// Counters implements MultiPredictor, reporting the wrapped hybrid's
// telemetry.
func (s *SingleHybridMBP) Counters() Counters { return s.h.Counters() }
