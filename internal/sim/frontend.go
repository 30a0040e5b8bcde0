package sim

import (
	"fmt"

	"tracecache/internal/bpred"
	"tracecache/internal/cache"
	"tracecache/internal/core"
	"tracecache/internal/fetch"
	"tracecache/internal/program"
	"tracecache/internal/stats"
)

// frontEnd bundles the fetch-path structures — cache hierarchy, indirect
// predictor, trace cache, fill unit, multiple-branch/hybrid predictor and
// fetch engine — that the detailed simulator and the replay engine both
// embed, together with the retire-time update that trains them.
// Everything here is driven purely by fetch requests and the retired
// stream, which is what makes a front-end-only replay possible: Replayer
// runs exactly these structures, and retires through exactly the same
// update, with no execution core attached.
type frontEnd struct {
	hier *cache.Hierarchy
	ind  *bpred.IndirectPredictor
	tc   *core.TraceCache
	fill *core.FillUnit
	mbp  bpred.MultiPredictor
	hyb  *bpred.Hybrid
	fe   fetch.Engine
}

// newFrontEnd builds the front end the configuration describes, its
// tables renewed from sp's (see Spare).
func newFrontEnd(cfg Config, prog *program.Program, sp *Spare) (frontEnd, error) {
	var f frontEnd
	var caches [3]*cache.Cache
	for i, cc := range cfg.cacheConfigs() {
		c, err := cache.Renew(sp.caches[i], cc)
		if err != nil {
			return f, fmt.Errorf("sim %q: %w", cfg.Name, err)
		}
		caches[i] = c
	}
	f.hier = &cache.Hierarchy{L1I: caches[0], L1D: caches[1], L2: caches[2]}
	f.ind = bpred.RenewIndirectPredictor(sp.ind, cfg.IndirectEntries)
	switch cfg.Front {
	case FrontTrace:
		tc, err := core.RenewTraceCache(sp.tc, cfg.TC)
		if err != nil {
			return f, err
		}
		f.tc = tc
		f.fill = core.RenewFillUnit(sp.fill, cfg.Fill, tc)
		switch {
		case cfg.SingleHybrid:
			f.mbp = bpred.NewSingleHybridMBP(bpred.RenewHybrid(sp.hyb))
		case cfg.SplitMBP:
			f.mbp = bpred.RenewSplitMBP(sp.split, cfg.SplitSizes[0], cfg.SplitSizes[1], cfg.SplitSizes[2])
		default:
			f.mbp = bpred.RenewTreeMBP(sp.tree, cfg.TreeEntries)
		}
		f.fe = fetch.NewTraceEngine(fetch.TraceConfig{
			Prog: prog, TC: tc, MBP: f.mbp, Indirect: f.ind, Hier: f.hier,
			MaxWidth:             cfg.FetchWidth,
			PathAssoc:            cfg.TC.PathAssoc,
			DisableInactiveIssue: cfg.DisableInactiveIssue,
		})
	default:
		f.hyb = bpred.RenewHybrid(sp.hyb)
		f.fe = fetch.NewICacheEngine(fetch.ICacheConfig{
			Prog: prog, Hier: f.hier, Hybrid: f.hyb, Indirect: f.ind,
			MaxWidth: cfg.FetchWidth,
		})
	}
	return f, nil
}

// TraceCache returns the trace cache (nil for the icache front end).
func (f *frontEnd) TraceCache() *core.TraceCache { return f.tc }

// FillUnit returns the fill unit (nil for the icache front end).
func (f *frontEnd) FillUnit() *core.FillUnit { return f.fill }

// Hierarchy returns the cache hierarchy.
func (f *frontEnd) Hierarchy() *cache.Hierarchy { return f.hier }

// retireUpdate is the retire-time front-end update both engines apply to
// every committed instruction: the fill unit (and through it the bias
// table) consumes the instruction, the predictor that supplied a
// conditional branch's direction and the indirect predictor train on the
// outcome, a store makes its data access, and run accumulates the
// retirement and per-source branch counters. taken, nextPC and memAddr
// are the committed outcome; mispredicted reports that the fetch-time
// prediction disagreed with it. hasMem is false only for a replayed store
// whose record carries no address.
//
//tc:hotpath
func (f *frontEnd) retireUpdate(run *stats.Run, fi *fetch.FetchedInst, alignFill, taken, mispredicted bool, nextPC int, memAddr uint64, hasMem bool) {
	in := &fi.Inst
	run.Retired++
	if f.fill != nil {
		if alignFill {
			f.fill.Align()
		}
		f.fill.RetireInst(fi.PC, in, taken)
	}
	switch {
	case in.IsCondBranch():
		run.CondBranches++
		src := stats.SrcEmbedded
		if fi.Promoted {
			src = stats.SrcPromoted
			run.PromotedExecuted++
			if mispredicted {
				run.PromotedFaults++
			}
		} else if fi.UsedSlot {
			src = stats.SrcSlot
			f.mbp.Update(fi.Ctx, taken)
		} else if fi.UsedHybrid {
			src = stats.SrcHybrid
			f.hyb.Update(fi.HCtx, taken)
		}
		run.CondBySource[src]++
		if mispredicted {
			run.MissBySource[src]++
			run.CondMispredicts++
		}
	case in.IsIndirect():
		run.IndirectJumps++
		f.ind.Update(fi.PC, nextPC)
		if mispredicted {
			run.IndirectMisses++
		}
	case in.IsReturn():
		run.Returns++
	case in.IsStore():
		if hasMem {
			f.hier.AccessData(memAddr)
		}
	}
}

// demote checks a faulting promoted branch for demotion: when the bias
// table no longer trusts the promoted direction, every trace-cache
// segment carrying the branch as promoted is invalidated. It returns the
// number of segments invalidated and whether the branch was demoted. The
// detailed machine checks when the fault resolves, replay just before the
// branch retires; both precede the branch's retireUpdate.
func (f *frontEnd) demote(pc int, predicted bool) (int, bool) {
	if f.fill == nil || f.fill.Bias() == nil || !f.fill.Bias().ShouldDemote(pc, predicted) {
		return 0, false
	}
	return f.tc.InvalidatePromoted(pc), true
}
