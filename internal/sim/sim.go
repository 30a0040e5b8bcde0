package sim

import (
	"tracecache/internal/check"
	"tracecache/internal/core"
	"tracecache/internal/engine"
	"tracecache/internal/exec"
	"tracecache/internal/fetch"
	"tracecache/internal/isa"
	"tracecache/internal/obs"
	"tracecache/internal/program"
	"tracecache/internal/stats"
	"tracecache/internal/trace"
)

// dyn is the simulator's view of one in-flight dynamic instruction,
// parallel to the engine's window.
type dyn struct {
	seq        uint64
	fi         fetch.FetchedInst
	fetchID    int
	fetchCycle uint64

	// Architectural results (execute-at-dispatch).
	taken    bool
	nextPC   int
	memAddr  uint64
	halted   bool
	snapshot exec.Snapshot // state just after this instruction executed

	// Self-check payloads (stored only while a checker is attached): the
	// memory value and destination-register value this instruction
	// produced, compared against the reference model at commit.
	memVal  int64
	destVal int64

	// Rename bookkeeping.
	destReg      isa.Reg
	hasDest      bool
	prevProducer uint64

	// alignFill marks the first instruction of a trace-cache-miss fetch:
	// the fill unit anchors a new segment at its address (fill-on-miss).
	alignFill bool

	// Resolution bookkeeping.
	mispredicted bool
	resolution   uint64 // cycles from fetch to redirect
	// inactiveSuffix holds the inactive instructions issued with this
	// (diverging) branch; they are injected if the branch mispredicts.
	// The buffer comes from Simulator.suffixFree and returns to it when
	// the branch retires or is squashed.
	inactiveSuffix []fetch.FetchedInst
}

// fetchRec tracks one fetch-delivery cycle until all of its instructions
// retire or are squashed, then classifies it (Figures 4, 6 and 12).
type fetchRec struct {
	id         int // ring identity (fetchID); lets growRecords re-home slots
	cycle      uint64
	pc         int
	reason     stats.FetchEnd
	fromTC     bool
	tcMiss     bool
	predsUsed  int
	dispatched int
	pending    int
	retired    int
	mispredBR  bool
	cause      stats.CycleClass
	caused     bool
	finalized  bool
	delivered  bool
	live       bool
}

// noProducer marks an architectural (not in-flight) register value.
const noProducer = ^uint64(0)

// Simulator runs one program under one configuration.
type Simulator struct {
	frontEnd
	cfg   Config
	prog  *program.Program
	state *exec.State
	eng   *engine.Engine

	run       stats.Run
	cycle     uint64
	cycleBase uint64 // cycle at the end of warmup; Cycles reports the delta

	window    []dyn
	mask      uint64
	renameMap [isa.NumRegs]uint64
	retireSeq uint64

	fetchPC int
	// pending is the fetch engine's bundle awaiting dispatch; only the
	// next Fetch refills it, and fetch waits until it drains or is discarded.
	pending      []fetch.FetchedInst
	pendingRec   int
	pendingPos   int
	deliverAt    uint64 // cycle the pending bundle is delivered (icache miss)
	pendingBrIdx int    // position of the diverging branch, -1 if none
	// pendingSuffix is the bundle's inactive suffix, a window on pending
	// until the diverging branch dispatches and copies it.
	pendingSuffix []fetch.FetchedInst
	// suffixFree recycles the inactive-suffix buffers of retired and
	// squashed diverging branches.
	suffixFree [][]fetch.FetchedInst

	// Injected inactive instructions awaiting window space. Dispatch
	// consumes the queue from its head, so it is refilled from injectBuf,
	// a backing array that keeps its capacity across recoveries.
	injectQueue []fetch.FetchedInst
	injectBuf   []fetch.FetchedInst
	injectRec   int

	// records is a power-of-two ring of fetch records indexed by
	// fetchID&recMask. A record is live from its fetch until maybeFinalize
	// or discardPending classifies it; a record can only be referenced by
	// in-flight window entries, the pending bundle, or the inject queue, so
	// the number of live records is bounded by the window size plus the
	// pending bundle. New sizes the ring from that bound; fetch grows it
	// (growRecords) rather than trusting it.
	records   []fetchRec
	recMask   int
	nextRecID int

	serialHold bool   // a trap/halt has been fetched and not yet cleared
	serialSeq  uint64 // seq of the dispatched serializing instruction
	serialInFl bool

	redirected    bool // a recovery happened this cycle
	redirectHold  uint64
	recoveryClass stats.CycleClass

	haltSeen bool

	// noFetch suppresses new fetch initiation while DrainPipeline empties
	// the machine at a sampling-phase boundary; in-flight work (pending
	// bundle delivery, inject queue, dispatched instructions) completes
	// through the ordinary paths.
	noFetch bool

	fiBuf []*fetch.FetchedInst
	step  exec.StepInfo // dispatchInst's StepAt output

	// Observability (all nil/zero by default: the disabled path costs a
	// nil check per instrumentation site).
	obs    *obs.Bus
	coll   *obs.Collector
	occSum uint64 // per-cycle window occupancy sum (collector enabled only)

	// chk is the self-verification layer (Config.Check); nil by default,
	// so the unchecked path costs one nil comparison per site.
	chk *check.Checker

	// trc is the retired-stream recording tap (AttachRecorder); nil by
	// default, so the detached path costs one nil comparison per commit.
	trc *trace.Writer

	// ffwdDone counts the committed instructions executed functionally
	// (stepped by fastForward) rather than retired by the cycle loop.
	ffwdDone uint64
}

// New builds a simulator for the program under the configuration.
func New(cfg Config, prog *program.Program) (*Simulator, error) {
	var sp Spare
	return sp.New(cfg, prog)
}

// New builds a simulator for the program under the configuration in the
// spare's tables, each renewed where the configuration shares its
// geometry and allocated as the package-level New does where it does not.
// It takes every table, so sp is empty afterwards, whether or not New
// succeeds, until Keep refills it.
func (sp *Spare) New(cfg Config, prog *program.Program) (*Simulator, error) {
	old := *sp
	*sp = Spare{}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f, err := newFrontEnd(cfg, prog, &old)
	if err != nil {
		return nil, err
	}
	s := &Simulator{frontEnd: f, cfg: cfg, prog: prog, state: exec.RenewState(old.state, prog), pendingBrIdx: -1}
	s.eng = engine.Renew(old.eng, cfg.Engine, s.hier)
	size := 1
	for size < 2*cfg.Engine.Window() {
		size <<= 1
	}
	s.window = renewed(old.window, size)
	s.mask = uint64(size - 1)
	for i := range s.renameMap {
		s.renameMap[i] = noProducer
	}
	s.run.Config = cfg.Name
	s.run.Benchmark = prog.Name
	s.fetchPC = prog.Entry
	// Fetch records live only while their instructions are in flight, so a
	// ring with one slot per window entry (plus slack for the pending
	// bundle) suffices; see the records field comment.
	recs := 1
	for recs < cfg.Engine.Window()+2 {
		recs <<= 1
	}
	s.records = renewed(old.records, recs)
	s.recMask = recs - 1
	s.suffixFree = old.suffixFree
	if cfg.Check {
		s.attachChecker()
	}
	return s, nil
}

// attachChecker builds the self-verification layer and hooks it into the
// fill unit (the simulator's own hooks are nil-guarded call sites).
func (s *Simulator) attachChecker() {
	p := check.Params{
		Prog:       s.prog,
		HasTC:      s.tc != nil,
		FetchWidth: s.cfg.FetchWidth,
		MaxSlots:   1,
		ConfigHash: s.cfg.Hash(),
	}
	if s.fill != nil {
		p.Fill = s.fill.Config()
	}
	if s.mbp != nil {
		p.MaxSlots = s.mbp.MaxSlots()
	}
	s.chk = check.New(p)
	if s.fill != nil {
		prevSeg := s.fill.OnSegment
		s.fill.OnSegment = func(seg *core.Segment) {
			s.chk.OnSegment(seg)
			if prevSeg != nil {
				prevSeg(seg)
			}
		}
		prevPack := s.fill.OnPack
		s.fill.OnPack = func(pending []core.SegInst, space, take, blockLen int) {
			s.chk.OnPack(pending, space, take, blockLen)
			if prevPack != nil {
				prevPack(pending, space, take, blockLen)
			}
		}
	}
}

// Checker returns the self-verification layer (nil unless Config.Check).
func (s *Simulator) Checker() *check.Checker { return s.chk }

// liveRecordCount counts fetch records that are still live and
// unclassified; the conservation identities allow each to own one cycle.
func (s *Simulator) liveRecordCount() int {
	n := 0
	for i := range s.records {
		if s.records[i].live && !s.records[i].finalized {
			n++
		}
	}
	return n
}

// growRecords doubles the fetch-record ring, re-homing every used record
// at its identity under the new mask. Two stored records cannot collide:
// each old slot holds one record and the doubling splits each residue
// class in two.
func (s *Simulator) growRecords() {
	old := s.records
	n := len(old) * 2
	s.records = make([]fetchRec, n)
	s.recMask = n - 1
	for i := range old {
		if old[i].live {
			s.records[old[i].id&s.recMask] = old[i]
		}
	}
}

// rec returns the fetch record with the given ID, which must still be live
// (referenced by an in-flight instruction, the pending bundle, or the
// inject queue).
//
//tc:hotpath
func (s *Simulator) rec(id int) *fetchRec { return &s.records[id&s.recMask] }

// Engine returns the execution core.
func (s *Simulator) Engine() *engine.Engine { return s.eng }

// windowSamplePeriod is the cycle period (a power of two) of the
// window-occupancy counter samples emitted while an event bus is attached.
const windowSamplePeriod = 256

// AttachObserver wires an event bus through the fetch engine, the fill
// unit, and the simulator itself. Attach before Run; a nil bus detaches.
func (s *Simulator) AttachObserver(b *obs.Bus) {
	s.obs = b
	if b != nil {
		b.SetClock(func() uint64 { return s.cycle })
	}
	s.fe.SetObserver(b)
	if s.fill != nil {
		s.fill.SetObserver(b)
	}
	if s.chk != nil {
		s.chk.SetObserver(b)
	}
}

// SetIntervalCollector installs a windowed time-series collector; the run
// loop feeds it a probe every Collector.Every measured cycles, starting at
// the end of warmup. Install before Run; nil disables collection.
func (s *Simulator) SetIntervalCollector(c *obs.Collector) { s.coll = c }

// probe samples the cumulative measured state for the interval collector.
func (s *Simulator) probe() obs.Probe {
	p := obs.Probe{Cycles: s.cycle - s.cycleBase, Run: s.run, OccSum: s.occSum}
	if s.tc != nil {
		st := s.tc.Stats()
		p.TCLookups, p.TCHits = st.Lookups, st.Hits
	}
	switch {
	case s.mbp != nil:
		p.PredLookups = s.mbp.Counters().Predictions
	case s.hyb != nil:
		p.PredLookups = s.hyb.Counters().Predictions
	}
	return p
}

// Run simulates until the instruction budget, cycle bound, or program halt
// and returns the collected statistics. When the configuration specifies a
// fast-forward, that many committed instructions are first executed
// functionally (see SkipFunctional). When the configuration specifies a
// warmup, statistics are reset once the warmup instruction count retires
// — with caches, predictors, the trace cache and the bias table left warm
// — so short runs are not dominated by cold-start effects (the paper ran
// 41M-500M instructions per benchmark).
func (s *Simulator) Run() *stats.Run {
	start := stats.MetaStart()
	if ff := s.cfg.FastForwardInsts; ff > 0 {
		_, _ = s.SkipFunctional(ff) // a new simulator is quiescent: the skip cannot fail
	}
	warm := s.cfg.WarmupInsts
	warming := warm > 0
	if !warming && s.coll != nil {
		s.coll.Reset(s.probe())
	}
	every := s.coll.Every()
	nextMark := every
	for !s.haltSeen && s.cycle-s.cycleBase < s.cfg.MaxCycles {
		if warming && s.run.Retired >= warm {
			warming = false
			s.resetStats()
			if s.coll != nil {
				s.coll.Reset(s.probe())
			}
		}
		if !warming && s.run.Retired >= s.cfg.MaxInsts {
			break
		}
		s.stepCycle()
		s.cycle++
		if s.coll != nil && !warming {
			s.occSum += uint64(s.eng.InFlight())
			if measured := s.cycle - s.cycleBase; measured >= nextMark {
				s.coll.Observe(s.probe())
				nextMark = measured + every
			}
		}
		if s.obs != nil && s.cycle&(windowSamplePeriod-1) == 0 {
			s.obs.Emit(obs.Event{
				Kind: obs.KindWindowSample, Cycle: s.cycle,
				V1: uint64(s.eng.InFlight()),
			})
		}
	}
	s.run.Cycles = s.cycle - s.cycleBase
	s.run.Meta = stats.NewMeta(start, stats.Meta{
		ConfigHash:       s.cfg.Hash(),
		WarmupInsts:      s.cfg.WarmupInsts,
		MaxInsts:         s.cfg.MaxInsts,
		FastForwardInsts: s.ffwdDone,
		Provenance:       stats.ProvCold,
	})
	if s.coll != nil {
		s.coll.Finish(s.probe(), s.run.Meta)
	}
	if s.chk != nil {
		f := check.Final{
			Run:         &s.run,
			LiveRecords: s.liveRecordCount(),
			EngineErr:   s.eng.CheckInvariants(),
		}
		if s.tc != nil {
			f.TCStats = s.tc.Stats()
			f.LivePromoted = s.tc.LivePromoted()
			f.ResidentPromoted = s.tc.ResidentPromoted()
		}
		s.chk.Finalize(f)
	}
	// Return a copy: stats.Run is a pure value type, and handing out a
	// pointer into the Simulator would pin the whole machine (window,
	// records, caches) for as long as the caller keeps the result.
	run := s.run
	return &run
}

// resetStats zeroes measurement counters at the end of warmup. The cycle
// counter keeps running (in-flight engine events are scheduled against
// it); Cycles reports the delta from here.
func (s *Simulator) resetStats() {
	s.run = stats.Run{Benchmark: s.run.Benchmark, Config: s.run.Config}
	s.cycleBase = s.cycle
	if s.chk != nil {
		s.chk.MarkMeasureStart(s.liveRecordCount())
	}
}

// Stats returns the statistics collected so far.
func (s *Simulator) Stats() *stats.Run { return &s.run }

//tc:hotpath
func (s *Simulator) stepCycle() {
	s.retire()
	if s.haltSeen {
		return
	}
	completed := s.eng.Tick(s.cycle)
	s.resolve(completed)
	if s.redirected {
		s.redirected = false
		s.run.Cycle[s.recoveryClass]++
		return
	}
	if s.redirectHold > 0 {
		s.redirectHold--
		s.run.Cycle[s.recoveryClass]++
		return
	}
	delivered := s.dispatch()
	s.fetch(delivered)
}

// ---------------------------------------------------------------- retire

//tc:hotpath
func (s *Simulator) retire() {
	for n := 0; n < s.cfg.RetireWidth; n++ {
		seq := s.retireSeq
		if s.eng.InFlight() == 0 || !s.eng.IsDone(seq) {
			return
		}
		d := &s.window[seq&s.mask]
		s.retireInst(d)
		s.eng.Retire(seq)
		s.retireSeq = seq + 1
		if d.halted {
			s.haltSeen = true
			return
		}
	}
}

// retireInst commits one instruction: the lockstep checker and the
// recording tap see it, the shared front-end update trains on it, and the
// detailed machine's own bookkeeping (resolution latency, serialization,
// undo-log release, fetch record) follows.
//
//tc:hotpath
func (s *Simulator) retireInst(d *dyn) {
	in := &d.fi.Inst
	if s.chk != nil {
		s.chk.Commit(check.Commit{
			Cycle: s.cycle, Seq: d.seq, PC: d.fi.PC,
			Taken: d.taken, NextPC: d.nextPC, Halted: d.halted,
			MemAddr: d.memAddr, MemVal: d.memVal,
			HasDest: d.hasDest, DestReg: d.destReg, DestVal: d.destVal,
		})
	}
	if s.trc != nil {
		s.recordRetire(d.fi.PC, in, d.taken, d.nextPC, d.memAddr)
	}
	s.retireUpdate(&s.run, &d.fi, d.alignFill, d.taken, d.mispredicted, d.nextPC, d.memAddr, true)
	s.releaseSuffix(d)
	if d.mispredicted && (in.IsCondBranch() || in.IsIndirect()) {
		s.run.ResolutionSum += d.resolution
		s.run.ResolutionsCounted++
	}
	if s.serialInFl && s.serialSeq == d.seq {
		s.serialInFl = false
		s.serialHold = false
	}
	s.state.ReleaseBefore(d.snapshot)
	rec := s.rec(d.fetchID)
	rec.retired++
	rec.pending--
	if d.mispredicted && in.IsCondBranch() {
		rec.mispredBR = true
	}
	s.maybeFinalize(d.fetchID)
}

// ---------------------------------------------------------------- resolve

//tc:hotpath
func (s *Simulator) resolve(completed []uint64) {
	for _, seq := range completed {
		d := &s.window[seq&s.mask]
		if d.seq != seq {
			continue // squashed earlier this cycle
		}
		in := d.fi.Inst
		switch {
		case in.IsCondBranch():
			if d.taken != d.fi.Predicted {
				s.recoverBranch(d)
				return // younger completions are squashed
			}
		case in.IsIndirect():
			if d.nextPC != d.fi.PredTarget {
				s.recover(d, stats.CycleMisfetch, d.nextPC)
				return
			}
		case in.IsReturn():
			if d.nextPC != d.fi.PredTarget {
				// Possible only on the wrong path (the RAS is ideal).
				s.recover(d, stats.CycleMisfetch, d.nextPC)
				return
			}
		}
	}
}

// recoverBranch handles a mispredicted conditional branch, including
// promoted-branch faults and the inactive-issue case where the segment's
// embedded path turns out to be the correct one.
func (s *Simulator) recoverBranch(d *dyn) {
	if d.fi.Promoted {
		// Promoted fault: handled like an exception; the machine backs up
		// to the previous checkpoint, modelled as an extra redirect
		// penalty on top of the misprediction recovery. Check demotion.
		if s.obs != nil {
			s.obs.Emit(obs.Event{Kind: obs.KindPromotedFault, Cycle: s.cycle, PC: d.fi.PC})
		}
		if n, ok := s.demote(d.fi.PC, d.fi.Predicted); ok && s.obs != nil {
			s.obs.Emit(obs.Event{
				Kind: obs.KindDemote, Cycle: s.cycle, PC: d.fi.PC, V1: uint64(n),
			})
		}
		s.recover(d, stats.CycleBranchMiss, d.nextPC)
		s.redirectHold += uint64(s.cfg.FaultPenalty)
		return
	}
	suffix := d.inactiveSuffix
	s.recover(d, stats.CycleBranchMiss, d.nextPC)
	if len(suffix) > 0 && d.fi.UsedSlot {
		// Inactive issue: the suffix follows the segment's embedded path.
		// It is correct-path only when the diverging branch carried a real
		// prediction (UsedSlot) that disagreed with the embedded outcome —
		// a mispredict then means the embedded path was right. A branch
		// past the predictor's bandwidth instead used the embedded outcome
		// as its prediction, so its mispredict means the embedded path
		// (and the suffix) is wrong: plain recovery, no injection.
		s.injectBuf = append(s.injectBuf[:0], suffix...)
		s.injectQueue = s.injectBuf
		s.injectRec = d.fetchID
		s.fetchPC = s.applyAndResume(suffix)
	}
}

// applyAndResume applies the fetch-state effects of the inactive suffix
// and returns the PC where fetch resumes.
func (s *Simulator) applyAndResume(suffix []fetch.FetchedInst) int {
	s.fiBuf = s.fiBuf[:0]
	for i := range suffix {
		s.fiBuf = append(s.fiBuf, &suffix[i])
	}
	return s.fe.ApplyEffects(s.fiBuf)
}

// recover squashes everything younger than d, rolls back architectural
// state, restores the rename map and fetch state, and redirects fetch.
func (s *Simulator) recover(d *dyn, cause stats.CycleClass, target int) {
	from := d.seq + 1
	// Rename map and record bookkeeping, youngest first.
	for seq := s.eng.NextSeq(); seq > from; {
		seq--
		y := &s.window[seq&s.mask]
		if y.seq != seq {
			continue
		}
		if y.hasDest && s.renameMap[y.destReg] == seq {
			s.renameMap[y.destReg] = y.prevProducer
		}
		s.releaseSuffix(y)
		rec := s.rec(y.fetchID)
		rec.pending--
		if !rec.caused {
			rec.cause, rec.caused = cause, true
		}
		y.seq = ^uint64(0) // poison the slot
		s.run.FetchedWrong++
		s.maybeFinalize(y.fetchID)
	}
	s.eng.Squash(from)
	s.state.Rollback(d.snapshot)
	// The speculative burst past d is undone; nothing older than the oldest
	// unretired instruction's snapshot can be rolled back to.
	s.state.ReleaseBefore(s.window[s.retireSeq&s.mask].snapshot)
	s.fe.ResolveEffect(&d.fi, d.taken)
	s.fetchPC = target
	s.discardPending(cause)
	if len(s.injectQueue) > 0 {
		s.injectQueue = s.injectQueue[:0]
		// maybeFinalize skipped the inject record while the queue was
		// non-empty; if its last in-flight instruction was squashed above,
		// nothing references it any more and no later event can classify
		// it. Release the ring slot without touching the statistics (the
		// record contributes to no counter, as before).
		if rec := s.rec(s.injectRec); !rec.finalized && rec.pending == 0 && rec.dispatched > 0 {
			rec.finalized = true
			if s.chk != nil {
				// Released without classifying a cycle; the cycle-sum
				// conservation identity widens by one.
				s.chk.OnRecordDropped()
			}
		}
	}
	if s.serialInFl && s.serialSeq >= from {
		s.serialInFl = false
		s.serialHold = false
	} else if s.serialHold && !s.serialInFl {
		// The serializing instruction was in the discarded bundle.
		s.serialHold = false
	}
	d.mispredicted = true
	d.resolution = s.cycle - d.fetchCycle
	s.redirected = true
	s.recoveryClass = cause
	if s.obs != nil {
		s.obs.Emit(obs.Event{
			Kind: obs.KindRedirect, Cycle: d.fetchCycle, Dur: d.resolution,
			PC: d.fi.PC, V1: uint64(cause),
		})
	}
}

func (s *Simulator) discardPending(cause stats.CycleClass) {
	if s.pending == nil {
		return
	}
	id := s.pendingRec
	rec := s.rec(id)
	s.pending = nil
	s.pendingPos = 0
	s.pendingBrIdx = -1
	s.pendingSuffix = nil
	if rec.dispatched == 0 {
		rec.finalized = true
		if rec.delivered {
			// The bundle occupied its fetch cycle but none of it issued:
			// the cycle was lost to the recovery's cause.
			s.run.Cycle[cause]++
		}
		return
	}
	s.maybeFinalize(id)
}

// ---------------------------------------------------------------- dispatch

// dispatch issues instructions from the inject queue and the pending
// bundle. It reports whether a bundle began dispatching this cycle after a
// miss stall.
//
//tc:hotpath
func (s *Simulator) dispatch() bool {
	// Injected inactive instructions re-enter without consuming fetch or
	// issue bandwidth: their original fetch already issued them.
	for len(s.injectQueue) > 0 && s.eng.SpaceFor(1) {
		fi := &s.injectQueue[0]
		s.injectQueue = s.injectQueue[1:]
		s.dispatchInst(fi, s.injectRec)
	}
	if len(s.injectQueue) > 0 {
		return false
	}
	delivered := false
	budget := s.cfg.IssueWidth
	for budget > 0 && s.pending != nil && s.cycle >= s.deliverAt {
		rec := s.rec(s.pendingRec)
		if !rec.delivered {
			rec.delivered = true
			delivered = true
		}
		if s.pendingPos >= len(s.pending) {
			break
		}
		fi := &s.pending[s.pendingPos]
		if fi.Inactive {
			s.pendingPos++
			continue
		}
		if !s.eng.SpaceFor(1) {
			break
		}
		s.dispatchInst(fi, s.pendingRec)
		if s.pendingPos == s.pendingBrIdx && s.pendingSuffix != nil {
			// The diverging branch carries its inactive suffix, copied out
			// of the bundle, which the next fetch refills.
			last := &s.window[(s.eng.NextSeq()-1)&s.mask]
			last.inactiveSuffix = s.holdSuffix(s.pendingSuffix)
			s.pendingSuffix = nil
			s.pendingBrIdx = -1
		}
		s.pendingPos++
		budget--
	}
	if s.pending != nil && s.pendingPos >= len(s.pending) {
		s.pending = nil
		s.pendingPos = 0
		s.pendingBrIdx = -1
		s.pendingSuffix = nil
	}
	return delivered
}

//tc:hotpath
func (s *Simulator) dispatchInst(fi *fetch.FetchedInst, recID int) {
	info := &s.step
	s.state.StepAt(fi.PC, info)
	snap := s.state.Checkpoint()
	// Rename: the in-flight producers of the at most two source registers.
	// Nothing renames r0, so its producer is always noProducer.
	var srcs [2]uint64
	n := 0
	r1, r2 := fi.Inst.Srcs()
	if p := s.renameMap[r1]; p != noProducer {
		srcs[n] = p
		n++
	}
	if p := s.renameMap[r2]; p != noProducer {
		srcs[n] = p
		n++
	}
	seq := s.eng.Dispatch(srcs[:n], fi.Inst.IsLoad(), fi.Inst.IsStore(), info.MemAddr, fi.Inst.Latency())
	d := &s.window[seq&s.mask]
	rec := s.rec(recID)
	// Fill the reused slot by assigning every field in place
	// (TestPoisonedWindowCarriesNothing). recover sets resolution with
	// mispredicted; destReg, prevProducer and destVal are read under hasDest.
	d.seq = seq
	d.fi = *fi
	d.fetchID = recID
	d.fetchCycle = rec.cycle
	d.taken = info.Taken
	d.nextPC = info.NextPC
	d.memAddr = info.MemAddr
	d.halted = info.Halted
	d.snapshot = snap
	d.alignFill = rec.tcMiss && rec.dispatched == 0
	d.mispredicted = false
	d.inactiveSuffix = nil
	rd, ok := fi.Inst.WritesReg()
	d.hasDest = ok
	if ok {
		d.destReg = rd
		d.prevProducer = s.renameMap[rd]
		s.renameMap[rd] = seq
		if s.chk != nil {
			// Execute-at-dispatch: the register already holds this
			// instruction's result. A correct-path instruction dispatches
			// against correct-path state, so the value is the committed one.
			d.destVal = s.state.Regs[rd]
		}
	}
	if s.chk != nil {
		d.memVal = info.Value
	}
	if fi.Inst.IsTrap() || fi.Inst.Op == isa.OpHalt {
		s.serialHold = true
		s.serialInFl = true
		s.serialSeq = seq
	}
	rec.dispatched++
	rec.pending++
}

// ------------------------------------------------------------------ fetch

//tc:hotpath
func (s *Simulator) fetch(deliveredThisCycle bool) {
	switch {
	case s.haltSeen:
		return
	case len(s.injectQueue) > 0:
		s.run.Cycle[stats.CycleFullWindow]++
		return
	case s.serialHold:
		s.run.Cycle[stats.CycleTrap]++
		return
	case s.pending != nil:
		if s.cycle < s.deliverAt {
			s.run.Cycle[stats.CycleCacheMiss]++
			if s.rec(s.pendingRec).tcMiss {
				s.run.TCMissCycles++
			}
			return
		}
		// Delivered but stuck behind a full window.
		s.run.Cycle[stats.CycleFullWindow]++
		return
	case deliveredThisCycle:
		// The fetch unit spent this cycle delivering a stalled bundle;
		// the bundle's record classifies this cycle.
		return
	case s.noFetch:
		// Draining to a sampling-phase boundary: the window sample was
		// already captured, so this cycle needs no classification.
		return
	}
	if !s.eng.SpaceFor(1) {
		s.run.Cycle[stats.CycleFullWindow]++
		return
	}
	b := s.fe.Fetch(s.fetchPC)
	if s.chk != nil {
		s.chk.OnBundle(b)
	}
	recID := s.nextRecID
	s.nextRecID++
	rec := s.rec(recID)
	// The ring is sized so live records never collide, but rather than
	// trusting that bound, grow it when a live unclassified record would
	// be evicted (each doubling splits the colliding residue class).
	for rec.live && !rec.finalized {
		s.growRecords()
		rec = s.rec(recID)
	}
	*rec = fetchRec{}
	rec.id = recID
	rec.cycle = s.cycle + uint64(b.Latency)
	rec.pc = s.fetchPC
	rec.reason = b.Reason
	rec.fromTC = b.FromTC
	rec.tcMiss = b.TCMiss
	rec.predsUsed = b.PredsUsed
	rec.live = true
	if b.TCMiss {
		s.run.TCMissCycles++
	}
	if b.Latency > 0 {
		s.run.Cycle[stats.CycleCacheMiss]++
		s.deliverAt = s.cycle + uint64(b.Latency)
	} else {
		// Delivered immediately: this fetch cycle is the record's cycle,
		// and dispatch next cycle overlaps with the next fetch.
		s.deliverAt = s.cycle
		rec.delivered = true
	}
	// Dispatch reads the fetch engine's bundle in place and copies each
	// instruction into the window, and the diverging branch copies its
	// inactive suffix (holdSuffix), so nothing references the bundle once
	// it drains. Locate the diverging branch for inactive-issue injection.
	s.pending = b.Insts
	s.pendingRec = recID
	s.pendingPos = 0
	s.pendingBrIdx = -1
	s.pendingSuffix = nil
	s.attachInactive(b.Insts)
	s.fetchPC = b.NextPC
	if b.EndsInSerial {
		s.serialHold = true
		s.serialInFl = false
	}
}

// attachInactive locates the divergence point; the inactive suffix is
// attached to the diverging branch when it dispatches. Until then it
// aliases the pending bundle: only fetch refills the bundle, and fetch
// waits until the bundle has drained (the branch has dispatched and
// copied the suffix) or been discarded (the suffix with it).
//
//tc:hotpath
func (s *Simulator) attachInactive(insts []fetch.FetchedInst) {
	first := -1
	for i := range insts {
		if insts[i].Inactive {
			first = i
			break
		}
	}
	if first <= 0 {
		return
	}
	if !insts[first-1].Inst.IsCondBranch() {
		return
	}
	s.pendingBrIdx = first - 1
	s.pendingSuffix = insts[first:]
}

// holdSuffix copies an inactive suffix into a buffer from the free list
// (a new one only while the list is empty), which the diverging branch
// keeps until it retires or is squashed.
//
//tc:hotpath
func (s *Simulator) holdSuffix(suffix []fetch.FetchedInst) []fetch.FetchedInst {
	var buf []fetch.FetchedInst
	if n := len(s.suffixFree); n > 0 {
		buf = s.suffixFree[n-1]
		s.suffixFree = s.suffixFree[:n-1]
	}
	buf = append(buf[:0], suffix...)
	return buf
}

// releaseSuffix returns a retiring or squashed instruction's inactive
// suffix buffer, if it holds one, to the free list.
//
//tc:hotpath
func (s *Simulator) releaseSuffix(d *dyn) {
	if d.inactiveSuffix != nil {
		s.suffixFree = append(s.suffixFree, d.inactiveSuffix[:0])
		d.inactiveSuffix = nil
	}
}

// maybeFinalize classifies a fetch record once all of its instructions
// have retired or been squashed.
//
//tc:hotpath
func (s *Simulator) maybeFinalize(id int) {
	rec := s.rec(id)
	if rec.finalized || rec.pending > 0 || rec.dispatched == 0 {
		return
	}
	if s.pending != nil && s.pendingRec == id {
		return // still dispatching
	}
	if len(s.injectQueue) > 0 && s.injectRec == id {
		return // injected instructions still arriving
	}
	rec.finalized = true
	if s.obs != nil && s.obs.Enabled(obs.KindFetchRecord) {
		ev := obs.Event{
			Kind: obs.KindFetchRecord, Cycle: rec.cycle, PC: rec.pc,
			V1: uint64(rec.dispatched), V2: uint64(rec.retired), V3: uint64(rec.reason),
		}
		if s.cycle > rec.cycle {
			ev.Dur = s.cycle - rec.cycle
		}
		if rec.fromTC {
			ev.Flags |= obs.FlagFromTC
		}
		if rec.mispredBR {
			ev.Flags |= obs.FlagMispredict
		}
		s.obs.Emit(ev)
	}
	if rec.retired > 0 {
		s.run.Cycle[stats.CycleUseful]++
		addFetch(&s.run, rec.retired, rec.reason, rec.mispredBR, rec.predsUsed)
		return
	}
	cls := rec.cause
	if !rec.caused {
		cls = stats.CycleBranchMiss
	}
	s.run.Cycle[cls]++
}

// addFetch accounts one fetch that delivered n correct-path instructions:
// the fetch count, the fetch-size histogram under its end reason (a
// mispredicted conditional branch overrides it) and the predictions used,
// clamped to the 3+ bucket. The detailed and replay engines share it.
//
//tc:hotpath
func addFetch(run *stats.Run, n int, end stats.FetchEnd, mispredBR bool, predsUsed int) {
	run.Fetches++
	run.FetchedCorrect += uint64(n)
	if mispredBR {
		end = stats.EndMispredBR
	}
	run.Hist.Add(n, end)
	run.PredsPerFetch[min(predsUsed, 3)]++
}
