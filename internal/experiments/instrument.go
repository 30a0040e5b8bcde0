package experiments

import (
	"time"

	"tracecache/internal/stats"
)

// RunPhase identifies where in its lifecycle a run request is.
type RunPhase uint8

// Run lifecycle phases.
const (
	// RunQueued: the request was registered in the memo; it is waiting
	// for a worker slot.
	RunQueued RunPhase = iota
	// RunStarted: a worker slot was acquired; the simulation is executing.
	RunStarted
	// RunDone: the request resolved — simulated to completion, failed, or
	// shared from the memo.
	RunDone
)

var phaseNames = [...]string{"queued", "started", "done"}

// String names the phase.
func (p RunPhase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase(?)"
}

// RunEvent is one run-lifecycle notification delivered to Runner.OnRun,
// the Runner's one reporting channel. Every RunE/RunConfiguredE/
// RunSampledE resolution produces exactly one RunDone event: the
// executing request emits it with its result's provenance
// (stats.ProvCold, ProvReplay, ProvSampled or ProvStore), and every
// memo-sharing request emits one with Memoized set and
// stats.ProvMemoized — so the journal and the live progress tracker,
// both built on these events, count the same sweep. Key is the point's
// display label (stats.PointLabel), not its memo identity.
type RunEvent struct {
	Phase                  RunPhase
	Key, Config, Benchmark string

	// RunDone payload. Run is nil when Err is set.
	Run *stats.Run
	Err error
	// Memoized marks a result shared from the memo: this request
	// simulated nothing, and QueueWait and Wall are zero.
	Memoized   bool
	Provenance string
	// QueueWait is the time from memo registration to worker-slot
	// acquisition (also carried by RunStarted); Wall is the time the slot
	// was held, simulation included.
	QueueWait, Wall time.Duration
}

// MultiListener fans one RunEvent to every non-nil listener, in order.
// It returns nil when no listeners remain, so Runner.OnRun stays a plain
// nil check on the disabled path.
func MultiListener(ls ...func(RunEvent)) func(RunEvent) {
	live := make([]func(RunEvent), 0, len(ls))
	for _, l := range ls {
		if l != nil {
			live = append(live, l)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(ev RunEvent) {
		for _, l := range live {
			l(ev)
		}
	}
}
