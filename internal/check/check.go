// Package check is the simulator's opt-in self-verification layer
// (sim.Config.Check, tcsim -check, tcbench -check). It enforces three
// families of properties while a detailed run executes:
//
//  1. Lockstep differential execution: a functional reference model (the
//     same exec.State machinery the fast-forward path uses) runs in
//     parallel with the detailed engine. Every committed instruction is
//     compared against the reference — PC, branch direction and target,
//     memory effect, destination value — and the first divergence is
//     reported with the run's config hash so it can be replayed.
//  2. Structural invariants: the paper's segment/promotion/packing
//     contract, asserted on every fill-unit finalize and every
//     trace-cache hit — at most Fill.MaxInsts instructions and
//     Fill.MaxBranches non-promoted conditional branches per segment,
//     promoted branches carry an embedded prediction and never consume a
//     predictor slot, packing splits blocks between instructions (never
//     through one) and cost-regulated packing fires only under its two
//     trigger conditions, path continuity and code-image agreement of
//     every segment and fetched bundle.
//  3. Conservation identities at end of run: fetch-cycle buckets sum to
//     the total measured cycles (within a documented slack, see below),
//     trace-cache hits+misses equal lookups, the measured retired count
//     equals the lockstep commit count (hence IPC == committed/cycles),
//     and the trace cache's incremental live-promoted-branch counter
//     (promotions inserted minus demotions/evictions) equals a full
//     recount of resident promoted branches.
//
// Violations are recorded as structured Violation values and emitted on
// the observability bus (obs.KindCheckViolation); the checker never
// panics. The simulator exposes its checker via Simulator.Checker.
//
// # Documented approximations
//
// Rules listed in Approximations are checked with an explicit tolerance
// or deliberately relaxed; each entry records why. They are suppressions
// in the sense of the self-check contract: a deviation inside the
// documented envelope is not a violation.
package check

import (
	"fmt"
	"strings"

	"tracecache/internal/core"
	"tracecache/internal/exec"
	"tracecache/internal/fetch"
	"tracecache/internal/isa"
	"tracecache/internal/obs"
	"tracecache/internal/program"
	"tracecache/internal/stats"
)

// Layer identifies which verification layer a violation came from.
type Layer uint8

// Verification layers.
const (
	// LayerLockstep is the differential reference-model comparison.
	LayerLockstep Layer = iota
	// LayerStructural is the segment/promotion/packing contract.
	LayerStructural
	// LayerConservation is the end-of-run statistics identities.
	LayerConservation
	// LayerReplay is the replay-fidelity comparison: a front-end-only
	// replay of a recorded retired stream against the detailed run that
	// produced it (CompareReplay).
	LayerReplay
	// LayerSampling covers the sampled execution mode: per-run phase
	// conservation identities (SamplingAudit) and the sampled-vs-detailed
	// fidelity comparison (CompareSampled).
	LayerSampling
)

var layerNames = [...]string{"lockstep", "structural", "conservation", "replay", "sampling"}

// String names the layer.
func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return fmt.Sprintf("layer(%d)", uint8(l))
}

// Violation is one self-check failure. Violations are diagnostic values:
// producing one never stops the run.
type Violation struct {
	Layer  Layer
	Rule   string // stable rule identifier, e.g. "lockstep/next-pc"
	Cycle  uint64 // simulator cycle when detected (0 if outside the loop)
	Seq    uint64 // dynamic instruction sequence number, when applicable
	PC     int    // instruction or fetch address, when applicable
	Detail string // human-readable expected-vs-got
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] %s: cycle=%d seq=%d pc=%d: %s",
		v.Layer, v.Rule, v.Cycle, v.Seq, v.PC, v.Detail)
}

// Approximations documents the rules that are checked with an explicit
// tolerance, and why exact equality is not the contract. See the package
// comment.
var Approximations = map[string]string{
	"conservation/cycle-sum": "fetch-cycle buckets are charged when a fetch record " +
		"finalizes, so records still in flight at the end of the run, records that " +
		"straddle the warmup boundary, records released without classification when " +
		"a recovery empties the inject queue, and the final halt cycle each shift the " +
		"sum by at most one cycle; the checker bounds the drift by the exact count of " +
		"those events instead of requiring equality",
	"structural/costreg-trigger": "packingWorthwhile compares unused slots against the " +
		"pending segment's current length (unused*2 >= len(pending)), not against half " +
		"the segment capacity; the checker verifies the implemented rule, which is what " +
		"every committed number was produced with (see the fill-unit tests pinning both " +
		"trigger conditions)",
	"replay/counts": "replay cuts the warmup and budget boundaries at fetch-bundle " +
		"granularity while the detailed machine cuts them at retire-burst granularity, " +
		"so the near-exact counters (retired, branch/jump/return populations, promoted " +
		"faults) carry an absolute slack of a few bundles rather than exact equality",
	"replay/rates": "the replay issues no wrong-path fetches and trains predictors at " +
		"replay commit rather than retire-lagged, so effective fetch rate and mispredict " +
		"rate are bounded within documented percentage envelopes; the trace cache hit " +
		"rate carries the widest bound because the detailed machine's lookup population " +
		"includes every wrong-path fetch (a different denominator, measured 11-27pp " +
		"apart on the standard workloads)",
}

// maxViolations bounds the recorded violation list; Total keeps counting
// beyond it.
const maxViolations = 64

// Params configures a Checker.
type Params struct {
	Prog *program.Program
	// Fill is the fill-unit configuration when a trace cache front end is
	// in use (HasTC); the segment contract is derived from it.
	Fill  core.FillConfig
	HasTC bool
	// FetchWidth bounds delivered bundles; MaxSlots bounds predictor
	// slots consumed per fetch.
	FetchWidth int
	MaxSlots   int
	// ConfigHash is the run's sim.Config.Hash, embedded in divergence
	// reports so they are replayable.
	ConfigHash string
}

// Commit describes one committed instruction for lockstep comparison.
type Commit struct {
	Cycle   uint64
	Seq     uint64
	PC      int
	Taken   bool
	NextPC  int
	MemAddr uint64
	MemVal  int64
	HasDest bool
	DestReg isa.Reg
	DestVal int64
	Halted  bool
}

// Final carries the end-of-run state for the conservation identities.
type Final struct {
	Run *stats.Run
	// LiveRecords is the number of unfinalized live fetch records at the
	// end of the run; each owns at most one unclassified cycle.
	LiveRecords int
	// EngineErr, when non-nil, is an execution-core invariant failure.
	EngineErr error
	// Trace cache state (valid when Params.HasTC).
	TCStats          core.TraceCacheStats
	LivePromoted     int
	ResidentPromoted int
}

// Checker verifies one simulation. It is not safe for concurrent use; the
// owning simulator drives it from its single-threaded loop.
type Checker struct {
	p   Params
	bus *obs.Bus

	// Lockstep reference model.
	ref      *exec.State
	refPC    int
	diverged bool

	// Counters for the conservation identities.
	commits      uint64 // detailed committed instructions observed
	measuredBase uint64 // commits when measurement started
	liveAtReset  int    // unfinalized live records at the warmup boundary
	dropped      int    // records released without classification
	fetches      uint64 // fetch-engine bundles observed
	tcHits       uint64
	tcMisses     uint64

	violations []Violation
	total      int
}

// New builds a checker with a fresh reference model at the program entry.
func New(p Params) *Checker {
	return &Checker{
		p:     p,
		ref:   exec.NewState(p.Prog),
		refPC: p.Prog.Entry,
	}
}

// SetObserver attaches an event bus; every recorded violation is also
// emitted as an obs.KindCheckViolation event (V1 = layer).
func (c *Checker) SetObserver(b *obs.Bus) { c.bus = b }

// Violations returns the recorded violations (capped; see Total).
func (c *Checker) Violations() []Violation { return c.violations }

// Total returns the number of violations detected, including any beyond
// the recording cap.
func (c *Checker) Total() int { return c.total }

// Commits returns the number of committed instructions compared against
// the reference model.
func (c *Checker) Commits() uint64 { return c.commits }

// Report renders the violations for humans; empty when the run was clean.
func (c *Checker) Report() string {
	if c.total == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "self-check: %d violation(s), config %s\n", c.total, c.p.ConfigHash)
	for _, v := range c.violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if c.total > len(c.violations) {
		fmt.Fprintf(&b, "  ... and %d more\n", c.total-len(c.violations))
	}
	return b.String()
}

func (c *Checker) record(v Violation) {
	c.total++
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, v)
	}
	if c.bus.Enabled(obs.KindCheckViolation) {
		c.bus.Emit(obs.Event{
			Kind: obs.KindCheckViolation, Cycle: v.Cycle, PC: v.PC,
			V1: uint64(v.Layer), V2: v.Seq,
		})
	}
}

func (c *Checker) lockstepf(cy, seq uint64, pc int, rule, format string, args ...any) {
	c.record(Violation{
		Layer: LayerLockstep, Rule: rule, Cycle: cy, Seq: seq, PC: pc,
		Detail: fmt.Sprintf(format, args...) + " (replay: config " + c.p.ConfigHash + ")",
	})
}

func (c *Checker) structuralf(pc int, rule, format string, args ...any) {
	c.record(Violation{
		Layer: LayerStructural, Rule: rule, PC: pc,
		Detail: fmt.Sprintf(format, args...),
	})
}

// ---------------------------------------------------------------- lockstep

// FastForward advances the reference model by up to n committed
// instructions, mirroring the simulator's functional fast-forward
// (stepping stops at a halt without consuming it), then verifies the
// reference resumed at the same PC the simulator will fetch from.
func (c *Checker) FastForward(n uint64, simPC int) {
	var done uint64
	var info exec.StepInfo
	for done < n {
		c.ref.Commit(c.refPC, &info)
		if info.Halted {
			break
		}
		done++
		c.refPC = info.NextPC
	}
	if c.refPC != simPC && !c.diverged {
		c.diverged = true
		c.lockstepf(0, 0, simPC, "lockstep/ffwd-pc",
			"after fast-forward of %d insts: reference at pc %d, simulator at pc %d",
			n, c.refPC, simPC)
	}
}

// Commit compares one committed instruction against the reference model.
// After the first divergence the comparison stops (everything downstream
// of a divergence would mismatch); the violation records where the two
// machines split.
func (c *Checker) Commit(cm Commit) {
	c.commits++
	if c.diverged {
		return
	}
	if cm.PC != c.refPC {
		c.diverged = true
		c.lockstepf(cm.Cycle, cm.Seq, cm.PC, "lockstep/pc",
			"committed pc %d, reference expects %d", cm.PC, c.refPC)
		return
	}
	var info exec.StepInfo
	c.ref.Commit(c.refPC, &info)
	switch {
	case cm.Halted != info.Halted:
		c.diverged = true
		c.lockstepf(cm.Cycle, cm.Seq, cm.PC, "lockstep/halt",
			"committed halted=%v, reference halted=%v", cm.Halted, info.Halted)
	case info.Inst.IsCondBranch() && cm.Taken != info.Taken:
		c.diverged = true
		c.lockstepf(cm.Cycle, cm.Seq, cm.PC, "lockstep/direction",
			"committed taken=%v, reference taken=%v", cm.Taken, info.Taken)
	case cm.NextPC != info.NextPC:
		c.diverged = true
		c.lockstepf(cm.Cycle, cm.Seq, cm.PC, "lockstep/next-pc",
			"committed next pc %d, reference next pc %d", cm.NextPC, info.NextPC)
	case info.Inst.IsMem() && cm.MemAddr != info.MemAddr:
		c.diverged = true
		c.lockstepf(cm.Cycle, cm.Seq, cm.PC, "lockstep/mem-addr",
			"committed effective address %d, reference %d", cm.MemAddr, info.MemAddr)
	case info.Inst.IsMem() && cm.MemVal != info.Value:
		c.diverged = true
		c.lockstepf(cm.Cycle, cm.Seq, cm.PC, "lockstep/mem-value",
			"committed memory value %d, reference %d", cm.MemVal, info.Value)
	case cm.HasDest && cm.DestVal != c.ref.Regs[cm.DestReg]:
		c.diverged = true
		c.lockstepf(cm.Cycle, cm.Seq, cm.PC, "lockstep/dest-value",
			"committed r%d=%d, reference r%d=%d",
			cm.DestReg, cm.DestVal, cm.DestReg, c.ref.Regs[cm.DestReg])
	}
	c.refPC = info.NextPC
}

// -------------------------------------------------------------- structural

// OnSegment verifies the segment contract on a fill-unit finalize.
func (c *Checker) OnSegment(seg *core.Segment) {
	n := seg.Len()
	if n == 0 || n > c.p.Fill.MaxInsts {
		c.structuralf(seg.Start, "structural/segment-size",
			"segment holds %d instructions, limit %d", n, c.p.Fill.MaxInsts)
	}
	if n > 0 && seg.Start != seg.Insts[0].PC {
		c.structuralf(seg.Start, "structural/segment-start",
			"segment start %d but first instruction at %d", seg.Start, seg.Insts[0].PC)
	}
	branches := 0
	for i, si := range seg.Insts {
		if si.PC < 0 || si.PC >= len(c.p.Prog.Code) {
			c.structuralf(si.PC, "structural/segment-image",
				"segment instruction %d outside the code image", si.PC)
			continue
		}
		if c.p.Prog.Code[si.PC] != si.Inst {
			c.structuralf(si.PC, "structural/segment-image",
				"segment instruction at %d disagrees with the code image", si.PC)
		}
		if si.Promoted {
			if !si.Inst.IsCondBranch() {
				c.structuralf(si.PC, "structural/promoted-not-branch",
					"promoted non-branch %v", si.Inst.Op)
			}
			if c.p.Fill.PromoteThreshold == 0 && c.p.Fill.StaticPromotions == nil {
				c.structuralf(si.PC, "structural/promotion-disabled",
					"promoted branch embedded with promotion disabled")
			}
		}
		if si.Inst.IsCondBranch() && !si.Promoted {
			branches++
		}
		if si.Inst.TerminatesSegment() && i != n-1 {
			c.structuralf(si.PC, "structural/terminator-mid-segment",
				"segment-terminating %v at position %d of %d", si.Inst.Op, i, n)
		}
		if i < n-1 {
			if next, ok := si.NextPC(); ok && next != seg.Insts[i+1].PC {
				c.structuralf(si.PC, "structural/path-continuity",
					"embedded path continues at %d but segment holds %d",
					next, seg.Insts[i+1].PC)
			}
		}
	}
	if branches != seg.NumBranches() {
		c.structuralf(seg.Start, "structural/branch-count",
			"segment records %d non-promoted branches, recount %d",
			seg.NumBranches(), branches)
	}
	if branches > c.p.Fill.MaxBranches {
		c.structuralf(seg.Start, "structural/max-branches",
			"%d non-promoted branches, limit %d", branches, c.p.Fill.MaxBranches)
	}
	switch seg.Reason {
	case core.FinalMaxSize:
		if n != c.p.Fill.MaxInsts {
			c.structuralf(seg.Start, "structural/finalize-reason",
				"finalized for size with %d of %d instructions", n, c.p.Fill.MaxInsts)
		}
	case core.FinalMaxBranches:
		if branches != c.p.Fill.MaxBranches {
			c.structuralf(seg.Start, "structural/finalize-reason",
				"finalized for branches with %d of %d", branches, c.p.Fill.MaxBranches)
		}
	case core.FinalTerminator:
		if n > 0 && !seg.Insts[n-1].Inst.TerminatesSegment() {
			c.structuralf(seg.Start, "structural/finalize-reason",
				"finalized for terminator but last op is %v", seg.Insts[n-1].Inst.Op)
		}
	}
}

// OnPack verifies one packing split against the configured policy.
// pending is the pending segment before the packed prefix is appended,
// space the free slots, take the instructions packed, blockLen the length
// of the block being split.
func (c *Checker) OnPack(pending []core.SegInst, space, take, blockLen int) {
	pc := 0
	if len(pending) > 0 {
		pc = pending[0].PC
	}
	if take <= 0 || take > space {
		c.structuralf(pc, "structural/pack-bounds",
			"packed %d instructions into %d free slots", take, space)
		return
	}
	switch c.p.Fill.Packing {
	case core.PackAtomic:
		// Atomic packing splits only blocks that cannot fit in any
		// segment, and then fills every slot.
		if blockLen <= c.p.Fill.MaxInsts {
			c.structuralf(pc, "structural/pack-atomic",
				"atomic policy split a %d-instruction block (segment size %d)",
				blockLen, c.p.Fill.MaxInsts)
		} else if take != space {
			c.structuralf(pc, "structural/pack-atomic",
				"oversized-block split packed %d of %d free slots", take, space)
		}
	case core.PackUnregulated:
		if take != space {
			c.structuralf(pc, "structural/pack-unregulated",
				"unregulated packing left %d free slots", space-take)
		}
	case core.PackChunk2, core.PackChunk4:
		chunk := 2
		if c.p.Fill.Packing == core.PackChunk4 {
			chunk = 4
		}
		if take%chunk != 0 || take != space/chunk*chunk {
			c.structuralf(pc, "structural/pack-chunk",
				"chunk-%d packing took %d of %d free slots", chunk, take, space)
		}
	case core.PackCostRegulated:
		// Re-derive the implemented trigger conditions independently (see
		// Approximations["structural/costreg-trigger"]).
		if !costRegWorthwhile(pending, c.p.Fill.MaxInsts) &&
			!(blockLen > c.p.Fill.MaxInsts && len(pending) == 0) {
			c.structuralf(pc, "structural/costreg-trigger",
				"cost-regulated packing fired with %d pending instructions and a %d-instruction block",
				len(pending), blockLen)
		} else if take != space {
			c.structuralf(pc, "structural/costreg-trigger",
				"cost-regulated packing took %d of %d free slots", take, space)
		}
	}
}

// costRegWorthwhile re-derives the cost-regulated trigger: unused slots at
// least half the pending length, or a tight backward branch in the pending
// segment. Kept independent of the fill unit's own packingWorthwhile so
// the check is a genuine cross-implementation.
func costRegWorthwhile(pending []core.SegInst, maxInsts int) bool {
	if (maxInsts-len(pending))*2 >= len(pending) {
		return true
	}
	for _, si := range pending {
		if si.Inst.Op == isa.OpBr && si.Inst.Target <= si.PC &&
			si.PC-si.Inst.Target <= core.TightLoopDisplacement {
			return true
		}
	}
	return false
}

// OnBundle verifies one delivered fetch bundle and counts it toward the
// trace-cache conservation identities.
func (c *Checker) OnBundle(b *fetch.Bundle) {
	c.fetches++
	if b.FromTC {
		c.tcHits++
	}
	if b.TCMiss {
		c.tcMisses++
	}
	if b.FromTC && b.TCMiss {
		c.structuralf(b.NextPC, "structural/bundle-hit-miss",
			"bundle flagged both a trace-cache hit and a miss")
	}
	slots := 0
	inactiveSeen := false
	for i := range b.Insts {
		fi := &b.Insts[i]
		if fi.PC < 0 || fi.PC >= len(c.p.Prog.Code) {
			c.structuralf(fi.PC, "structural/bundle-image",
				"fetched instruction %d outside the code image", fi.PC)
			continue
		}
		if c.p.Prog.Code[fi.PC] != fi.Inst {
			c.structuralf(fi.PC, "structural/bundle-image",
				"fetched instruction at %d disagrees with the code image", fi.PC)
		}
		if fi.UsedSlot || fi.UsedHybrid {
			slots++
		}
		if fi.Promoted && (fi.UsedSlot || fi.UsedHybrid) {
			c.structuralf(fi.PC, "structural/promoted-used-predictor",
				"promoted branch consumed a dynamic prediction")
		}
		if fi.Inactive {
			inactiveSeen = true
		} else if inactiveSeen {
			c.structuralf(fi.PC, "structural/inactive-suffix",
				"active instruction after the inactive suffix began")
		}
	}
	if b.FromTC {
		if len(b.Insts) > c.p.Fill.MaxInsts {
			c.structuralf(b.Insts[0].PC, "structural/bundle-size",
				"trace-cache bundle of %d instructions, segment limit %d",
				len(b.Insts), c.p.Fill.MaxInsts)
		}
		unpromoted := 0
		for i := range b.Insts {
			if b.Insts[i].Inst.IsCondBranch() && !b.Insts[i].Promoted {
				unpromoted++
			}
		}
		if unpromoted > c.p.Fill.MaxBranches {
			c.structuralf(b.Insts[0].PC, "structural/bundle-branches",
				"trace-cache bundle holds %d non-promoted branches, limit %d",
				unpromoted, c.p.Fill.MaxBranches)
		}
	}
	if b.PredsUsed != slots || slots > c.p.MaxSlots {
		pc := 0
		if len(b.Insts) > 0 {
			pc = b.Insts[0].PC
		}
		c.structuralf(pc, "structural/preds-used",
			"bundle reports %d predictions, %d slot consumers, predictor provides %d",
			b.PredsUsed, slots, c.p.MaxSlots)
	}
}

// ------------------------------------------------------------ conservation

// MarkMeasureStart notes the warmup boundary: measured commits are counted
// from here, and liveRecords unfinalized fetch records may classify cycles
// across the boundary.
func (c *Checker) MarkMeasureStart(liveRecords int) {
	c.measuredBase = c.commits
	c.liveAtReset = liveRecords
}

// OnRecordDropped notes a fetch record released without classifying its
// delivery cycle (a recovery emptied the inject queue it was feeding); the
// cycle-sum identity widens by one.
func (c *Checker) OnRecordDropped() { c.dropped++ }

// Finalize verifies the end-of-run conservation identities.
func (c *Checker) Finalize(f Final) {
	run := f.Run
	var sum uint64
	for _, v := range run.Cycle {
		sum += v
	}
	// See Approximations["conservation/cycle-sum"] for the slack terms.
	slack := uint64(f.LiveRecords + c.liveAtReset + c.dropped + 2)
	var drift uint64
	if sum > run.Cycles {
		drift = sum - run.Cycles
	} else {
		drift = run.Cycles - sum
	}
	if drift > slack {
		c.record(Violation{
			Layer: LayerConservation, Rule: "conservation/cycle-sum",
			Detail: fmt.Sprintf("cycle buckets sum to %d, measured cycles %d (drift %d > slack %d)",
				sum, run.Cycles, drift, slack),
		})
	}
	if measured := c.commits - c.measuredBase; measured != run.Retired {
		c.record(Violation{
			Layer: LayerConservation, Rule: "conservation/retired",
			Detail: fmt.Sprintf("lockstep observed %d measured commits, statistics report %d retired",
				measured, run.Retired),
		})
	}
	if f.EngineErr != nil {
		c.record(Violation{
			Layer: LayerConservation, Rule: "conservation/engine-window",
			Detail: f.EngineErr.Error(),
		})
	}
	if !c.p.HasTC {
		return
	}
	st := f.TCStats
	if c.tcHits+c.tcMisses != c.fetches {
		c.record(Violation{
			Layer: LayerConservation, Rule: "conservation/tc-hits-misses",
			Detail: fmt.Sprintf("%d hits + %d misses != %d fetches",
				c.tcHits, c.tcMisses, c.fetches),
		})
	}
	if st.Lookups != c.fetches || st.Hits != c.tcHits {
		c.record(Violation{
			Layer: LayerConservation, Rule: "conservation/tc-lookups",
			Detail: fmt.Sprintf("trace cache counted %d lookups/%d hits, fetch stream delivered %d/%d",
				st.Lookups, st.Hits, c.fetches, c.tcHits),
		})
	}
	if f.LivePromoted != f.ResidentPromoted {
		c.record(Violation{
			Layer: LayerConservation, Rule: "conservation/live-promoted",
			Detail: fmt.Sprintf("incremental promoted-branch count %d, resident recount %d",
				f.LivePromoted, f.ResidentPromoted),
		})
	}
}
