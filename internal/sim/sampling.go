package sim

import (
	"errors"

	"tracecache/internal/core"
	"tracecache/internal/stats"
)

// This file exports the phase primitives of the sampled execution mode
// (internal/sampling drives them): functional fast-forward over an
// unmeasured gap, detailed execution to an instruction target, a window
// statistics reset, and a pipeline drain that returns the machine to a
// committed architectural boundary so the next gap can run functionally.
//
// The drain is the load-bearing transition. DrainPipeline suppresses new
// fetch initiation (Simulator.noFetch) and steps cycles until nothing is
// in flight: every dispatched instruction retires or is squashed through
// the ordinary recovery paths, so when the machine quiesces, fetchPC is
// the committed next PC and the front end's history and RAS are
// committed-equivalent — exactly the state fastForward reads at entry
// and rebuilds at exit. The caller captures its window sample before
// draining, so drain cycles and drain-tail retirements never pollute the
// sample.

// Drain/step bounds. A healthy machine drains a full window plus a
// pending miss within a few hundred cycles; the caps only trip on a
// wedged pipeline, which the caller reports instead of spinning forever.
const (
	maxDrainCycles = 1 << 20
	// maxCyclesPerInst bounds how many cycles RunDetailed may spend per
	// requested instruction (the slowest configurations run at IPC well
	// above 1/1024) plus a constant slack for cold starts.
	maxCyclesPerInst = 1 << 10
	stepCycleSlack   = 1 << 16
)

// Sentinel errors of the sampling primitives (allocated once: the
// primitives are on the hot per-window transition path).
var (
	// ErrNotQuiescent reports a phase transition attempted with work in
	// flight: SkipFunctional is only legal at a committed boundary.
	ErrNotQuiescent = errors.New("sim: sampling transition with instructions in flight")
	// ErrDrainStall reports a pipeline that failed to quiesce within the
	// drain cycle bound.
	ErrDrainStall = errors.New("sim: pipeline failed to drain")
	// ErrWindowStall reports a detailed window that failed to retire its
	// budget within the cycle bound.
	ErrWindowStall = errors.New("sim: detailed window failed to retire its budget")
)

// Quiescent reports whether the machine is at a committed boundary:
// nothing dispatched, pending, or queued for injection.
func (s *Simulator) Quiescent() bool {
	return s.eng.InFlight() == 0 && s.pending == nil && len(s.injectQueue) == 0
}

// Halted reports whether the detailed machine has retired the program's
// halt instruction.
func (s *Simulator) Halted() bool { return s.haltSeen }

// CommittedInsts returns the committed-stream position: instructions
// executed functionally (the fast-forward prefix and sampling gaps) plus
// every detailed retirement since construction. Unlike the per-window
// Retired counter it is never reset, so the sampling driver and the
// sampling audit use it for phase-boundary accounting.
func (s *Simulator) CommittedInsts() uint64 { return s.ffwdDone + s.retireSeq }

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// SkipFunctional executes up to n committed instructions functionally
// (see fastForward: retired-stream structures keep warming) and returns
// how many actually executed — fewer than n only when the program halts
// inside the gap. The machine must be quiescent (post-drain or
// pre-detail); the lockstep reference model, when attached, is advanced
// the same distance.
//
//tc:hotpath
func (s *Simulator) SkipFunctional(n uint64) (uint64, error) {
	if !s.Quiescent() || s.noFetch {
		return 0, ErrNotQuiescent
	}
	before := s.ffwdDone
	s.fastForward(n)
	done := s.ffwdDone - before
	if s.chk != nil && done > 0 {
		s.chk.FastForward(done, s.fetchPC)
	}
	return done, nil
}

// RunDetailed steps the detailed machine until n more instructions
// retire into the current window (i.e. past the Retired count at entry),
// the program halts, or the cycle bound trips. Like Run, it may overshoot
// the target by up to RetireWidth−1 instructions (retirement is
// burst-granular).
//
//tc:hotpath
func (s *Simulator) RunDetailed(n uint64) error {
	target := s.run.Retired + n
	limit := s.cycle + n*maxCyclesPerInst + stepCycleSlack
	var err error
	for !s.haltSeen && s.run.Retired < target {
		if s.cycle >= limit {
			err = ErrWindowStall
			break
		}
		s.stepCycle()
		s.cycle++
	}
	return err
}

// DrainPipeline retires or squashes everything in flight without
// initiating new fetches, leaving the machine quiescent at a committed
// boundary (or halted). See the file comment for why the resulting fetch
// state is committed-equivalent.
//
//tc:hotpath
func (s *Simulator) DrainPipeline() error {
	s.noFetch = true
	limit := s.cycle + maxDrainCycles
	var err error
	for !s.haltSeen && !s.Quiescent() {
		if s.cycle >= limit {
			err = ErrDrainStall
			break
		}
		s.stepCycle()
		s.cycle++
	}
	s.noFetch = false
	return err
}

// ResetWindowStats discards the statistics accumulated since the last
// reset and restarts the cycle base, exactly as the end-of-warmup reset
// does in Run. The sampling driver calls it at the start of each
// detailed warmup segment and again at measure start, reusing the
// simulator's single Run accumulator (no per-window allocation).
//
//tc:hotpath
func (s *Simulator) ResetWindowStats() { s.resetStats() }

// CaptureWindow copies the current window statistics into out (reusing
// the caller's buffer: Run is a flat value, so this allocates nothing)
// and sets its Cycles to the measured delta. Call before DrainPipeline
// so the sample excludes drain cycles and drain-tail retirements.
//
//tc:hotpath
func (s *Simulator) CaptureWindow(out *stats.Run) {
	*out = s.run
	out.Cycles = s.cycle - s.cycleBase
}

// TraceCacheStats returns the cumulative trace cache counters (zero
// values for the icache front end). The sampling driver differences
// successive snapshots to attribute hits and lookups to windows.
func (s *Simulator) TraceCacheStats() core.TraceCacheStats {
	if s.tc == nil {
		return core.TraceCacheStats{}
	}
	return s.tc.Stats()
}
