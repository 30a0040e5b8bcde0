// Package fetch implements the two front ends of the paper's experiments:
// the trace-cache fetch mechanism (trace cache + supporting instruction
// cache + multiple branch predictor, with partial matching and inactive
// issue) and the reference instruction-cache front end (large dual-ported
// icache + hybrid predictor, one fetch block per cycle).
//
// Both engines maintain the speculative fetch state — global branch
// history and an ideal return address stack — and expose O(1) recovery so
// the simulator can restore the state of any in-flight instruction on a
// misprediction or promoted-branch fault.
package fetch

import (
	"slices"

	"tracecache/internal/bpred"
	"tracecache/internal/isa"
	"tracecache/internal/obs"
	"tracecache/internal/stats"
)

// RASNode is a node of the persistent (immutable) return address stack.
// Persistence makes per-instruction checkpoints O(1).
type RASNode struct {
	target int
	prev   *RASNode
}

func rasPush(top *RASNode, target int) *RASNode {
	return &RASNode{target: target, prev: top}
}

// rasPop returns the predicted return target. An empty stack (possible
// only on the wrong path) predicts fallthrough.
func rasPop(top *RASNode, pc int) (int, *RASNode) {
	if top == nil {
		return pc + 1, nil
	}
	return top.target, top.prev
}

// RASDepth returns the stack depth (for tests).
func RASDepth(top *RASNode) int {
	n := 0
	for ; top != nil; top = top.prev {
		n++
	}
	return n
}

// BuildRAS builds a return address stack holding the given return targets,
// oldest first — the shape of an architectural call stack. Fast-forward
// uses it to seed the speculative RAS with the committed call nesting.
func BuildRAS(targets []int) *RASNode {
	var top *RASNode
	for _, t := range targets {
		top = rasPush(top, t)
	}
	return top
}

// FetchedInst is one instruction delivered by a fetch, with the prediction
// and recovery state the simulator needs.
type FetchedInst struct {
	PC         int
	Inst       isa.Inst
	BlockStart bool // first instruction of a fetch block (checkpoint point)
	Inactive   bool // issued inactively (beyond the predicted path)

	// Control prediction.
	Predicted  bool // predicted direction (static direction for promoted)
	Promoted   bool
	UsedSlot   bool            // consumed a multiple-branch-predictor slot
	Ctx        bpred.PredCtx   // update context when UsedSlot
	UsedHybrid bool            // predicted by the hybrid predictor
	HCtx       bpred.HybridCtx // update context when UsedHybrid
	PredTarget int             // predicted PC following this instruction

	// Fetch state before this instruction, for recovery.
	HistBefore uint64
	RASBefore  *RASNode
}

// Bundle is the result of one fetch cycle.
type Bundle struct {
	Insts     []FetchedInst
	NextPC    int  // predicted fetch address for the next cycle
	FromTC    bool // instructions came from the trace cache
	TCMiss    bool // a trace cache lookup missed this cycle
	Latency   int  // stall cycles before the bundle is available (icache miss)
	Reason    stats.FetchEnd
	PredsUsed int
	// EndsInSerial is set when the bundle ends with a trap or halt: fetch
	// must block until it retires.
	EndsInSerial bool
}

// next appends a slot for the instruction in at pc, with the fetch state
// fs holds before it, a fall-through prediction and no predictor context;
// callers set what differs. The engine reuses the bundle's array, so the
// slot is filled by assigning every field, never cleared first
// (TestPoisonedBundlesCarryNothing).
//
//tc:hotpath
func (b *Bundle) next(pc int, in *isa.Inst, fs *frontState, blockStart, inactive bool) *FetchedInst {
	n := len(b.Insts)
	b.Insts = slices.Grow(b.Insts, 1)[:n+1]
	fi := &b.Insts[n]
	fi.PC, fi.Inst = pc, *in
	fi.BlockStart, fi.Inactive = blockStart, inactive
	fi.Predicted, fi.Promoted = false, false
	fi.UsedSlot, fi.Ctx = false, bpred.PredCtx{}
	fi.UsedHybrid, fi.HCtx = false, bpred.HybridCtx{}
	fi.PredTarget = pc + 1
	fi.HistBefore, fi.RASBefore = fs.hist.Reg, fs.ras
	return fi
}

// ActiveLen returns the number of non-inactive instructions.
func (b *Bundle) ActiveLen() int {
	n := 0
	for i := range b.Insts {
		if !b.Insts[i].Inactive {
			n++
		}
	}
	return n
}

// Engine is a fetch mechanism.
type Engine interface {
	// Fetch runs one fetch cycle at pc. The returned bundle is owned by
	// the engine and refilled by the next Fetch call, so the caller may
	// read it in place until then and must copy what it keeps longer.
	Fetch(pc int) *Bundle
	// Restore resets the speculative fetch state (for recovery).
	Restore(hist uint64, ras *RASNode)
	// ResolveEffect restores the state to just after fi, with the
	// conditional outcome corrected to actualTaken.
	ResolveEffect(fi *FetchedInst, actualTaken bool)
	// ApplyEffects re-applies the embedded fetch-state effects of
	// instructions (used when inactive instructions become the path) and
	// returns the PC at which fetch resumes after the last of them.
	ApplyEffects(fis []*FetchedInst) int
	// Hist returns the current speculative global history.
	Hist() uint64
	// RAS returns the current return address stack.
	RAS() *RASNode
	// SetObserver attaches an event bus; the engine emits trace cache
	// hit/miss and icache fetch events to it. A nil bus disables emission.
	SetObserver(*obs.Bus)
}

// frontState is the speculative fetch state shared by both engines.
type frontState struct {
	hist bpred.History
	ras  *RASNode
	obs  *obs.Bus
}

// SetObserver implements Engine.
func (f *frontState) SetObserver(b *obs.Bus) { f.obs = b }

// Hist implements Engine.
func (f *frontState) Hist() uint64 { return f.hist.Reg }

// RAS implements Engine.
func (f *frontState) RAS() *RASNode { return f.ras }

// Restore implements Engine.
func (f *frontState) Restore(hist uint64, ras *RASNode) {
	f.hist.Reg = hist
	f.ras = ras
}

// applyEffect applies one instruction's fetch-state effect with the given
// conditional outcome.
func (f *frontState) applyEffect(fi *FetchedInst, taken bool) {
	switch {
	case fi.Inst.IsCondBranch():
		f.hist.Push(taken)
	case fi.Inst.Op == isa.OpCall:
		f.ras = rasPush(f.ras, fi.PC+1)
	case fi.Inst.Op == isa.OpRet:
		_, f.ras = rasPop(f.ras, fi.PC)
	}
}

// ResolveEffect implements Engine.
func (f *frontState) ResolveEffect(fi *FetchedInst, actualTaken bool) {
	f.Restore(fi.HistBefore, fi.RASBefore)
	f.applyEffect(fi, actualTaken)
}

// ApplyEffects implements Engine.
func (f *frontState) ApplyEffects(fis []*FetchedInst) int {
	next := 0
	for _, fi := range fis {
		switch {
		case fi.Inst.IsCondBranch():
			f.hist.Push(fi.Predicted)
			if fi.Predicted {
				next = fi.Inst.Target
			} else {
				next = fi.PC + 1
			}
		case fi.Inst.Op == isa.OpCall:
			f.ras = rasPush(f.ras, fi.PC+1)
			next = fi.Inst.Target
		case fi.Inst.Op == isa.OpJmp:
			next = fi.Inst.Target
		case fi.Inst.Op == isa.OpRet:
			next, f.ras = rasPop(f.ras, fi.PC)
		case fi.Inst.IsIndirect():
			next = fi.PredTarget
		default:
			next = fi.PC + 1
		}
	}
	return next
}

// clampPC keeps a (possibly wrong-path) fetch address inside the image.
func clampPC(pc, codeLen int) int {
	if pc < 0 {
		return 0
	}
	if pc >= codeLen {
		return codeLen - 1
	}
	return pc
}
