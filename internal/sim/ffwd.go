package sim

import (
	"tracecache/internal/exec"
	"tracecache/internal/fetch"
	"tracecache/internal/isa"
	"tracecache/internal/stats"
)

// This file implements functional fast-forward: executing the committed
// path against the architectural state with no engine, no scheduler, no
// speculation and no per-cycle accounting, while still feeding the retired
// stream into the structures a detailed run warms from that same stream —
// the instruction and data caches, the branch predictors, the bias table
// and the fill unit (and through it the trace cache).
//
// Structures keyed purely by the retired stream (bias table, fill unit,
// trace cache contents, indirect predictor, cache tags) warm as the
// detailed run's committed path would warm them. The conditional-branch
// predictors are fetch-time structures: detailed fetch groups and
// wrong-path training cannot be reproduced without the pipeline, so
// fast-forward trains them on the committed path using a pseudo fetch
// group (reset at taken control flow, the predictor's slot budget, or the
// fetch width) — TestFastForwardAccuracy logs the measured accuracy
// deltas.

// FastForwarded returns the number of committed instructions executed
// functionally (the fast-forward prefix plus any sampling gaps).
func (s *Simulator) FastForwarded() uint64 { return s.ffwdDone }

// fastForward executes up to n committed-path instructions functionally,
// warming the retired-stream structures, and leaves the machine ready to
// fetch the next committed instruction. It consumes no cycles and touches
// no run statistics. If the program halts inside the fast-forward window,
// stepping stops at the halt instruction without consuming it, so the
// detailed phase retires it exactly as a longer detailed run would.
//
//tc:hotpath
func (s *Simulator) fastForward(n uint64) {
	hist := s.fe.Hist()
	pc := s.fetchPC
	// [lineLo, lineHi) is the PC range of the L1I line last fetched, so an
	// instruction in the same line costs two compares, not a division.
	// Line sizes are powers of two.
	lineInsts := s.hier.L1I.LineBytes() / isa.InstBytes
	lineLo, lineHi := 0, 0
	width := s.cfg.FetchWidth
	if width <= 0 {
		width = stats.MaxFetchWidth
	}
	maxSlots := 0
	if s.mbp != nil {
		maxSlots = s.mbp.MaxSlots()
	}
	// Pseudo fetch group for the multiple branch predictor: indexed by the
	// group's start PC and the history at its start, like real fetches.
	var (
		groupStart = pc
		groupHist  = hist
		groupLen   int
		slot       int
		path       uint8
	)
	var done uint64
	var info exec.StepInfo
	for done < n {
		s.state.Commit(pc, &info)
		if info.Halted {
			break
		}
		in := info.Inst
		done++
		if s.trc != nil {
			s.recordRetire(pc, in, info.Taken, info.NextPC, info.MemAddr)
		}
		if pc < lineLo || pc >= lineHi {
			s.hier.FetchInst(isa.Addr(pc))
			lineLo = pc &^ (lineInsts - 1)
			lineHi = lineLo + lineInsts
		}
		if s.fill != nil {
			s.fill.RetireInst(pc, in, info.Taken)
		}
		endGroup := false
		switch {
		case in.IsCondBranch():
			switch {
			case s.mbp != nil:
				if slot < maxSlots {
					pred, ctx := s.mbp.Predict(groupStart, pc, groupHist, slot, path)
					if pred {
						path |= 1 << uint(slot)
					}
					slot++
					s.mbp.Update(ctx, info.Taken)
				}
				endGroup = slot >= maxSlots
			case s.hyb != nil:
				_, ctx := s.hyb.Predict(pc, hist)
				s.hyb.Update(ctx, info.Taken)
				endGroup = true // icache fetch blocks end at branches
			}
			hist <<= 1
			if info.Taken {
				hist |= 1
			}
		case in.IsIndirect():
			s.ind.Update(pc, info.NextPC)
			endGroup = true
		case in.IsControl(), in.IsTrap():
			endGroup = true
		default:
			if in.IsMem() {
				s.hier.AccessData(info.MemAddr)
			}
		}
		groupLen++
		pc = info.NextPC
		if endGroup || groupLen >= width {
			groupStart, groupHist = pc, hist
			groupLen, slot, path = 0, 0, 0
		}
	}
	s.fetchPC = pc
	s.ffwdDone += done
	// Hand the front end the architectural fetch state: the committed
	// branch history and a RAS mirroring the committed call nesting.
	s.fe.Restore(hist, fetch.BuildRAS(s.state.CallStack()))
}
