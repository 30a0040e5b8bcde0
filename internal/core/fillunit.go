package core

import (
	"fmt"

	"tracecache/internal/isa"
	"tracecache/internal/obs"
)

// PackPolicy selects how the fill unit treats fetch blocks that do not fit
// in the pending segment (Section 5).
type PackPolicy uint8

// Packing policies.
const (
	// PackAtomic never splits a block across segments (unless the block
	// itself exceeds the segment size). This is the baseline behaviour.
	PackAtomic PackPolicy = iota
	// PackUnregulated greedily fills every remaining slot.
	PackUnregulated
	// PackChunk2 packs only even numbers of instructions.
	PackChunk2
	// PackChunk4 packs only multiples of four instructions.
	PackChunk4
	// PackCostRegulated packs only when at least half the pending segment
	// is empty, or the pending segment contains a short backward branch
	// (a tight loop, where unrolling pays for the redundancy).
	PackCostRegulated
)

var packNames = [...]string{"atomic", "unregulated", "chunk2", "chunk4", "costreg"}

// String names the policy.
func (p PackPolicy) String() string {
	if int(p) < len(packNames) {
		return packNames[p]
	}
	return fmt.Sprintf("pack(%d)", uint8(p))
}

// chunk returns the packing granularity for chunk-regulated policies.
func (p PackPolicy) chunk() int {
	switch p {
	case PackChunk2:
		return 2
	case PackChunk4:
		return 4
	}
	return 1
}

// TightLoopDisplacement is the maximum backward-branch displacement (in
// instructions) that cost-regulated packing treats as a tight loop.
const TightLoopDisplacement = 32

// FillConfig parameterises the fill unit.
type FillConfig struct {
	MaxInsts    int // instructions per segment (paper: 16)
	MaxBranches int // non-promoted conditional branches per segment (paper: 3)
	Packing     PackPolicy
	// PromoteThreshold is the consecutive-outcome count at which a branch
	// is promoted; 0 disables promotion.
	PromoteThreshold uint32
	// BiasTableSize is the number of bias table entries (paper: 8K).
	BiasTableSize int
	// BiasMaxCount saturates the consecutive-outcome counter; 0 selects a
	// default comfortably above the largest threshold studied (1023).
	BiasMaxCount uint32
	// StaticPromotions, when non-nil, switches the fill unit to static
	// promotion (Section 4's compile-time variant): a conditional branch
	// is promoted iff it is annotated here and its retired outcome matches
	// the annotated direction. The bias table and PromoteThreshold are
	// not used.
	StaticPromotions map[int]bool
}

// DefaultFillConfig returns the paper's fill unit geometry with the given
// packing policy and promotion threshold.
func DefaultFillConfig(p PackPolicy, threshold uint32) FillConfig {
	return FillConfig{
		MaxInsts:         16,
		MaxBranches:      3,
		Packing:          p,
		PromoteThreshold: threshold,
		BiasTableSize:    8192,
	}
}

// FillStats counts fill unit activity.
type FillStats struct {
	Retired      uint64
	Segments     uint64
	InstsWritten uint64
	Promotions   uint64 // promoted branch instances embedded in segments
	Branches     uint64 // conditional branch instances embedded in segments
	Splits       uint64 // blocks fragmented across segments
	Reasons      [FinalAtomic + 1]uint64
}

// AvgSegmentLen returns the mean built-segment length.
func (s FillStats) AvgSegmentLen() float64 {
	if s.Segments == 0 {
		return 0
	}
	return float64(s.InstsWritten) / float64(s.Segments)
}

// maxBlockBuffer bounds the in-progress block collector; straight-line runs
// longer than this are force-broken (they exceed the segment size many
// times over, so every policy would split them anyway).
const maxBlockBuffer = 256

// FillUnit collects blocks from the retired instruction stream and builds
// trace segments (Section 3: "the fill unit collects blocks after they
// retire"). Finalized segments are copied into the trace cache. Its
// buffers are sized once, at construction, so filling allocates nothing.
type FillUnit struct {
	cfg             FillConfig
	tc              *TraceCache
	bias            *BiasTable
	pending         []SegInst // the fill buffer, capacity MaxInsts
	pendingBranches int
	block           []SegInst // the in-progress block, capacity maxBlockBuffer
	seg             Segment   // finalize's view of pending
	stats           FillStats
	obs             *obs.Bus
	// OnSegment, when set, observes every finalized segment. The segment
	// is a view of the fill buffer, valid only during the callback: an
	// observer that keeps it must copy it.
	OnSegment func(*Segment)
	// OnPack, when set, observes every packing split before the packed
	// prefix is appended: the pending segment as it stood, the free slots,
	// the instructions taken, and the length of the block being split.
	OnPack func(pending []SegInst, space, take, blockLen int)
}

// NewFillUnit builds a fill unit writing into tc (which may be nil for
// analysis-only use).
func NewFillUnit(cfg FillConfig, tc *TraceCache) *FillUnit {
	if cfg.MaxInsts <= 0 {
		cfg.MaxInsts = 16
	}
	if cfg.MaxBranches <= 0 {
		cfg.MaxBranches = 3
	}
	if cfg.BiasMaxCount == 0 {
		cfg.BiasMaxCount = 1023
	}
	// The consecutive-outcome counter must be able to reach the promotion
	// threshold: a saturation cap below it would silently disable
	// promotion (count saturates at BiasMaxCount and the >= threshold
	// test never passes). The shipped configurations use thresholds well
	// under the default cap, so the clamp is behaviour-neutral for them.
	if cfg.BiasMaxCount < cfg.PromoteThreshold {
		cfg.BiasMaxCount = cfg.PromoteThreshold
	}
	f := &FillUnit{
		cfg:     cfg,
		tc:      tc,
		pending: make([]SegInst, 0, cfg.MaxInsts),
		block:   make([]SegInst, 0, maxBlockBuffer),
	}
	if cfg.PromoteThreshold > 0 && cfg.StaticPromotions == nil {
		size := cfg.BiasTableSize
		if size <= 0 {
			size = 8192
		}
		f.bias = NewBiasTable(size, cfg.BiasMaxCount)
	}
	return f
}

// Config returns the fill configuration.
func (f *FillUnit) Config() FillConfig { return f.cfg }

// Bias returns the branch bias table (nil when promotion is disabled).
func (f *FillUnit) Bias() *BiasTable { return f.bias }

// Stats returns fill activity counters.
func (f *FillUnit) Stats() FillStats { return f.stats }

// SetObserver attaches an event bus; the fill unit emits segment
// finalize, packing split, and branch promotion events to it. Events
// carry no cycle (the fill unit has no clock); the bus stamps them.
func (f *FillUnit) SetObserver(b *obs.Bus) { f.obs = b }

// Retire feeds one retired instruction to the fill unit. taken is the
// outcome for conditional branches.
//
//tc:hotpath
func (f *FillUnit) Retire(pc int, in isa.Inst, taken bool) {
	f.stats.Retired++
	// Fill the block's next slot in place; mergeBlock runs before the
	// block outgrows its maxBlockBuffer capacity.
	n := len(f.block)
	f.block = f.block[:n+1]
	si := &f.block[n]
	*si = SegInst{PC: pc, Inst: in, Taken: taken}
	switch {
	case in.IsCondBranch() && f.cfg.StaticPromotions != nil:
		if dir, ok := f.cfg.StaticPromotions[pc]; ok && dir == taken {
			si.Promoted = true
		}
	case in.IsCondBranch() && f.bias != nil:
		f.bias.Update(pc, taken)
		if dir, count, ok := f.bias.Lookup(pc); ok && count >= f.cfg.PromoteThreshold && dir == taken {
			si.Promoted = true
		}
	}
	if si.Promoted && f.obs.Enabled(obs.KindPromote) {
		ev := obs.Event{Kind: obs.KindPromote, PC: pc}
		if taken {
			ev.Flags |= obs.FlagTaken
		}
		f.obs.Emit(ev)
	}
	if in.IsControl() || len(f.block) >= maxBlockBuffer {
		f.mergeBlock()
	}
}

// mergeBlock folds the completed block into the pending segment, splitting
// it per the packing policy when it does not fit. It reads the block in
// place: the collector is truncated up front, and nothing refills it
// until the next Retire, after the merge.
//
//tc:hotpath
func (f *FillUnit) mergeBlock() {
	blk := f.block
	f.block = f.block[:0]
	for len(blk) > 0 {
		space := f.cfg.MaxInsts - len(f.pending)
		if len(blk) <= space {
			f.appendInsts(blk)
			last := blk[len(blk)-1]
			blk = nil
			switch {
			case len(f.pending) == f.cfg.MaxInsts:
				f.finalize(FinalMaxSize)
			case last.Inst.TerminatesSegment():
				f.finalize(FinalTerminator)
			case f.pendingBranches >= f.cfg.MaxBranches:
				f.finalize(FinalMaxBranches)
			}
			return
		}
		take := f.packAmount(space, len(blk))
		if take <= 0 {
			f.finalize(FinalAtomic)
			continue
		}
		if f.OnPack != nil {
			f.OnPack(f.pending, space, take, len(blk))
		}
		f.appendInsts(blk[:take])
		blk = blk[take:]
		f.stats.Splits++
		if f.obs.Enabled(obs.KindSegPack) {
			f.obs.Emit(obs.Event{Kind: obs.KindSegPack, PC: blk[0].PC, V1: uint64(take)})
		}
		if len(f.pending) == f.cfg.MaxInsts {
			f.finalize(FinalMaxSize)
		} else {
			f.finalize(FinalAtomic)
		}
	}
}

// packAmount decides how many instructions of an unfitting block to pack
// into the remaining space.
//
//tc:hotpath
func (f *FillUnit) packAmount(space, blockLen int) int {
	switch f.cfg.Packing {
	case PackAtomic:
		if blockLen > f.cfg.MaxInsts {
			// Oversized blocks must be split under every policy.
			return space
		}
		return 0
	case PackUnregulated:
		return space
	case PackChunk2, PackChunk4:
		n := f.cfg.Packing.chunk()
		return space / n * n
	case PackCostRegulated:
		if f.packingWorthwhile() {
			return space
		}
		if blockLen > f.cfg.MaxInsts && len(f.pending) == 0 {
			return space
		}
		return 0
	}
	return 0
}

// packingWorthwhile implements the cost-regulated test: the segment is
// "half empty" in the sense that the unused slots amount to at least half
// of the instructions already pending (unused*2 >= len(pending), i.e. the
// segment is at most two-thirds full), or the pending segment contains a
// tight backward branch. Note the first trigger compares against the
// pending length, not against half the segment capacity; the self-check
// layer and the fill-unit tests pin this exact rule.
//
//tc:hotpath
func (f *FillUnit) packingWorthwhile() bool {
	unused := f.cfg.MaxInsts - len(f.pending)
	if unused*2 >= len(f.pending) {
		return true
	}
	for _, si := range f.pending {
		if si.Inst.Op == isa.OpBr && si.Inst.Target <= si.PC &&
			si.PC-si.Inst.Target <= TightLoopDisplacement {
			return true
		}
	}
	return false
}

// appendInsts appends a run of one block (never more than the free slots)
// to the pending segment. A block ends at its only control instruction
// (Retire merges at each one), so the run's last instruction is the only
// one that can be a conditional branch.
//
//tc:hotpath
func (f *FillUnit) appendInsts(insts []SegInst) {
	f.pending = append(f.pending, insts...)
	if last := &insts[len(insts)-1]; last.Inst.IsCondBranch() {
		f.stats.Branches++
		if last.Promoted {
			f.stats.Promotions++
		} else {
			f.pendingBranches++
		}
	}
}

// finalize copies the pending segment into the trace cache and resets
// the fill buffer. Insert and OnSegment see one reused view of the buffer.
//
//tc:hotpath
func (f *FillUnit) finalize(reason FinalizeReason) {
	if len(f.pending) == 0 {
		return
	}
	seg := &f.seg
	seg.Start = f.pending[0].PC
	seg.Insts = f.pending
	seg.Reason = reason
	seg.branches = f.pendingBranches
	f.pending = f.pending[:0]
	f.pendingBranches = 0
	f.stats.Segments++
	f.stats.InstsWritten += uint64(seg.Len())
	f.stats.Reasons[reason]++
	if f.tc != nil {
		f.tc.Insert(seg)
	}
	if f.obs.Enabled(obs.KindSegFinalize) {
		f.obs.Emit(obs.Event{
			Kind: obs.KindSegFinalize, PC: seg.Start,
			V1: uint64(seg.Len()), V2: uint64(reason), V3: uint64(seg.NumPromoted()),
		})
	}
	if f.OnSegment != nil {
		f.OnSegment(seg)
	}
}

// Align finalizes the pending segment so the next retired instruction
// starts a new one. The simulator calls it when the next retiring
// instruction was the start of a trace-cache-miss fetch: real fill units
// capture the missed trace starting exactly at the missed fetch address,
// keeping trace cache contents aligned with the addresses the front end
// requests.
func (f *FillUnit) Align() {
	if len(f.block) > 0 {
		// Flush the in-progress partial block through the normal merge
		// path so the segment capacity limits hold; the boundary falls
		// mid-block only when the previous fetch ended mid-block.
		f.mergeBlock()
	}
	f.finalize(FinalAtomic)
}

// Pending returns the current pending segment length (for tests).
func (f *FillUnit) Pending() int { return len(f.pending) }
