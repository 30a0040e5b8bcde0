package fetch

import (
	"tracecache/internal/bpred"
	"tracecache/internal/cache"
	"tracecache/internal/core"
	"tracecache/internal/isa"
	"tracecache/internal/obs"
	"tracecache/internal/program"
	"tracecache/internal/stats"
)

// TraceConfig parameterises the trace-cache front end.
type TraceConfig struct {
	Prog     *program.Program
	TC       *core.TraceCache
	MBP      bpred.MultiPredictor
	Indirect *bpred.IndirectPredictor
	Hier     *cache.Hierarchy // L1I is the small supporting icache
	MaxWidth int              // default 16
	// PathAssoc selects among same-start segments by predicted path
	// (requires a path-associative trace cache).
	PathAssoc bool
	// DisableInactiveIssue reverts to the pre-inactive-issue trace cache:
	// instructions past the predicted path are not issued at all.
	DisableInactiveIssue bool
}

// traceHistBits is the trace-cache front end's global history length,
// which indexes the multiple branch predictor (a 16K-entry gshare).
const traceHistBits = 14

// TraceEngine is the trace-cache fetch mechanism: a trace cache lookup per
// cycle, sequenced by a multiple branch predictor, with inactive issue
// (all blocks of a hit segment are issued; blocks past the predicted path
// are inactive) and a supporting instruction cache on trace cache misses.
type TraceEngine struct {
	frontState
	cfg    TraceConfig
	icf    icacheFetcher
	bundle Bundle
}

// NewTraceEngine builds the trace-cache front end.
func NewTraceEngine(cfg TraceConfig) *TraceEngine {
	if cfg.MaxWidth <= 0 {
		cfg.MaxWidth = stats.MaxFetchWidth
	}
	e := &TraceEngine{
		cfg: cfg,
		icf: newICacheFetcher(cfg.Prog, cfg.Hier, cfg.MaxWidth),
	}
	e.hist.Bits = traceHistBits
	e.bundle.Insts = make([]FetchedInst, 0, cfg.MaxWidth)
	return e
}

// Fetch implements Engine: a trace cache lookup, falling back to the
// supporting instruction cache on a miss.
//
//tc:hotpath
func (e *TraceEngine) Fetch(pc int) *Bundle {
	b := &e.bundle
	insts := b.Insts[:0]
	*b = Bundle{}
	b.Insts = insts
	pc = clampPC(pc, len(e.cfg.Prog.Code))
	var seg *core.Segment
	if e.cfg.PathAssoc {
		seg = e.cfg.TC.LookupPath(pc, e.predictPathBits(pc))
	} else {
		seg = e.cfg.TC.Lookup(pc)
	}
	if seg == nil {
		b.TCMiss = true
		if e.obs.Enabled(obs.KindTCMiss) {
			e.obs.Emit(obs.Event{Kind: obs.KindTCMiss, PC: pc})
		}
		// The predictor callback runs only on the trace-cache-miss path.
		// go build -gcflags=-m: the literal does not escape (stack
		// allocated).
		//tcvet:ignore hotalloc predictor literal is stack-allocated per escape analysis
		e.icf.fetchBlock(b, pc, &e.frontState, func(brPC int, fi *FetchedInst) bool {
			taken, ctx := e.cfg.MBP.Predict(pc, brPC, e.hist.Reg, 0, 0)
			fi.UsedSlot, fi.Ctx = true, ctx
			return taken
		}, e.cfg.Indirect)
		return b
	}
	b.FromTC = true
	e.walkSegment(b, seg)
	if e.obs.Enabled(obs.KindTCHit) {
		e.obs.Emit(obs.Event{
			Kind: obs.KindTCHit, PC: pc,
			V1: uint64(len(b.Insts)), V2: uint64(b.PredsUsed),
		})
	}
	return b
}

// predictPathBits precomputes the predicted outcomes of up to three
// branches for path-associative segment selection. The predictions are
// pure reads; walkSegment recomputes them identically.
//
//tc:hotpath
func (e *TraceEngine) predictPathBits(pc int) uint8 {
	var path uint8
	for slot := 0; slot < e.cfg.MBP.MaxSlots(); slot++ {
		taken, _ := e.cfg.MBP.Predict(pc, pc, e.hist.Reg, slot, path)
		if taken {
			path |= 1 << uint(slot)
		}
	}
	return path
}

// targetOf returns the PC following a conditional branch given a
// direction.
func targetOf(si *core.SegInst, taken bool) int {
	if taken {
		return si.Inst.Target
	}
	return si.PC + 1
}

// walkSegment issues a hit segment: the multiple branch predictor
// sequences through the embedded branches; the first disagreement ends the
// active portion and the remainder issues inactively.
//
//tc:hotpath
func (e *TraceEngine) walkSegment(b *Bundle, seg *core.Segment) {
	histStart := e.hist.Reg
	maxSlots := e.cfg.MBP.MaxSlots()
	var (
		diverged   bool
		path       uint8
		preds      int
		blockStart = true
	)
	for i := range seg.Insts {
		si := &seg.Insts[i]
		if diverged && e.cfg.DisableInactiveIssue {
			break
		}
		fi := b.next(si.PC, &si.Inst, &e.frontState, blockStart, diverged)
		blockStart = false
		switch {
		case si.Inst.IsCondBranch() && !si.Promoted:
			blockStart = true
			if !diverged && preds < maxSlots {
				taken, ctx := e.cfg.MBP.Predict(seg.Start, si.PC, histStart, preds, path)
				fi.UsedSlot, fi.Ctx, fi.Predicted = true, ctx, taken
				if taken {
					path |= 1 << uint(preds)
				}
				preds++
				e.hist.Push(taken)
				fi.PredTarget = targetOf(si, taken)
				if taken != si.Taken {
					// Partial match: the predictor leaves the segment
					// here; the rest issues inactively.
					diverged = true
					b.NextPC = fi.PredTarget
				}
			} else {
				// Inactive (or past the predictor's bandwidth): the
				// segment's embedded outcome stands in for a prediction.
				fi.Predicted = si.Taken
				fi.PredTarget = targetOf(si, si.Taken)
				if !diverged {
					diverged = true
					b.NextPC = fi.PredTarget
				}
			}
		case si.Promoted:
			fi.Promoted, fi.Predicted = true, si.Taken
			fi.PredTarget = targetOf(si, si.Taken)
			if !diverged {
				e.hist.Push(si.Taken)
			}
		case si.Inst.Op == isa.OpCall:
			fi.PredTarget = si.Inst.Target
			if !diverged {
				e.ras = rasPush(e.ras, si.PC+1)
			}
		case si.Inst.Op == isa.OpJmp:
			fi.PredTarget = si.Inst.Target
		case si.Inst.Op == isa.OpRet:
			if !diverged {
				fi.PredTarget, e.ras = rasPop(e.ras, si.PC)
			}
		case si.Inst.IsIndirect():
			if t, ok := e.cfg.Indirect.Predict(si.PC); ok {
				fi.PredTarget = t
			}
		case si.Inst.IsTrap() || si.Inst.Op == isa.OpHalt:
			// Only an active serializing instruction blocks fetch; an
			// inactive one is dispatched (and blocks) only if it is later
			// injected on a misprediction.
			if !diverged {
				b.EndsInSerial = true
			}
		}
		if !diverged {
			b.NextPC = fi.PredTarget
		}
	}
	b.PredsUsed = preds
	if diverged {
		b.Reason = stats.EndPartialMatch
		return
	}
	switch seg.Reason {
	case core.FinalMaxSize:
		b.Reason = stats.EndMaxSize
	case core.FinalMaxBranches:
		b.Reason = stats.EndMaxBRs
	case core.FinalTerminator:
		b.Reason = stats.EndRetIndirTrap
	default:
		b.Reason = stats.EndAtomicBlocks
	}
}
