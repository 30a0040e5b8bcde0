package experiments

import (
	"time"

	"tracecache/internal/metrics"
	"tracecache/internal/sim"
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

// RunEvent is one run-lifecycle notification delivered to Runner.OnRun.
// Every RunE/RunConfiguredE/RunSampledE resolution produces exactly one
// RunDone event: the executing request emits it with its result's
// provenance (stats.ProvCold, ProvReplay, ProvSampled or ProvStore), and
// every memo-sharing request emits one with Memoized set and
// stats.ProvMemoized — so journal records and progress trackers built on
// these events tie out against the runner's counters. Key is the point's
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

// RunnerMetrics is the fleet-level counter set a Runner feeds when its
// Metrics field is non-nil. All members are registry-backed atomics, so
// one RunnerMetrics serves any number of concurrent sweeps; the identities
//
//	MemoMisses == RunsCompleted + RunsFailed (every miss simulates)
//	RunsCompleted == ColdStarts + Replays + SampledRuns + StoreServed
//
// hold whenever the runner is quiescent.
type RunnerMetrics struct {
	// RunsStarted counts simulations that acquired a worker slot;
	// RunsCompleted and RunsFailed partition their outcomes.
	RunsStarted, RunsCompleted, RunsFailed *metrics.Counter
	// MemoHits counts requests resolved by singleflight sharing;
	// MemoMisses counts requests that had to simulate.
	MemoHits, MemoMisses *metrics.Counter
	// ColdStarts, Replays, SampledRuns and StoreServed partition completed
	// runs by provenance: simulated from scratch (fast-forward prefix
	// included), resolved by the front-end replay fast path, estimated by
	// the statistical-sampling path, or served verbatim from the
	// persistent result store (zero simulation).
	ColdStarts, Replays, SampledRuns, StoreServed *metrics.Counter
	// WorkersBusy is the current worker-pool occupancy; WorkersLimit is
	// the pool size (set when the pool is created).
	WorkersBusy, WorkersLimit *metrics.Gauge
	// QueueWait and RunWall are per-run distributions in seconds: time
	// waiting for a slot, and time holding it.
	QueueWait, RunWall *metrics.Histogram
	// Sim carries the shared simulator counters (committed instructions,
	// cycles); the runner attaches it to every simulator it builds.
	Sim *sim.Metrics
}

// InstrumentRunner registers the runner counter set in the registry.
// Assign the result to Runner.Metrics before the first Run call.
func InstrumentRunner(r *metrics.Registry) *RunnerMetrics {
	return &RunnerMetrics{
		RunsStarted: r.Counter("tracecache_runner_runs_started_total",
			"Simulations that acquired a worker slot."),
		RunsCompleted: r.Counter("tracecache_runner_runs_completed_total",
			"Simulations that finished successfully."),
		RunsFailed: r.Counter("tracecache_runner_runs_failed_total",
			"Simulations that finished with an error."),
		MemoHits: r.Counter("tracecache_runner_memo_hits_total",
			"Run requests resolved by singleflight memo sharing."),
		MemoMisses: r.Counter("tracecache_runner_memo_misses_total",
			"Run requests that had to simulate."),
		ColdStarts: r.Counter("tracecache_runner_cold_starts_total",
			"Completed simulations executed from scratch."),
		Replays: r.Counter("tracecache_runner_replays_total",
			"Completed runs resolved by the front-end replay fast path."),
		SampledRuns: r.Counter("tracecache_runner_sampled_runs_total",
			"Completed runs estimated by the statistical-sampling path."),
		StoreServed: r.Counter("tracecache_runner_store_served_total",
			"Completed runs served verbatim from the persistent result store."),
		WorkersBusy: r.Gauge("tracecache_runner_workers_busy",
			"Worker slots currently held by executing simulations."),
		WorkersLimit: r.Gauge("tracecache_runner_workers_limit",
			"Size of the worker pool."),
		QueueWait: r.Histogram("tracecache_runner_queue_wait_seconds",
			"Per-run wait for a worker slot.", metrics.DefSecondsBuckets),
		RunWall: r.Histogram("tracecache_runner_run_wall_seconds",
			"Per-run wall time holding a worker slot.", metrics.DefSecondsBuckets),
		Sim: sim.NewMetrics(r),
	}
}
