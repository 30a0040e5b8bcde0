// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables 1-4, Figures 4-16) on the synthetic benchmark suite.
// Each experiment formats the same rows and series the paper reports;
// absolute values differ (different workloads and substrate), but the
// comparative shapes are the reproduction target.
//
// # Execution
//
// Every run request (RunE, RunConfiguredE, RunSampledE, and the sweeps
// built on them) is one request {configuration, benchmark, mode},
// resolved by one executor. A request's identity is its content, not its
// name: the full Config.Hash of the requested configuration with the
// runner's budgets applied (Warmup, Budget, FastForward, Sampling), the
// benchmark, and the mode (detailed or sampled). The executor tries, in
// order: the persistent result store (Store), replay of the benchmark's
// committed stream (Replay; front-end-equivalent detailed requests only),
// and finally a detailed or sampled simulation, which executes any
// FastForward prefix itself exactly as sim.Simulator.Run and sampling.Run
// do. Whether a request replays, and so which store mode it reads and
// writes, depends on the request alone. RunEvent.Key is a display label
// ("config/bench", see stats.PointLabel), not the identity.
//
// # Concurrency
//
// A Runner is safe for concurrent use. Memoization is singleflight: the
// first caller of an identity executes it, every concurrent caller of the
// same identity blocks until that execution finishes and then shares the
// identical *stats.Run — a run in flight is awaited, never duplicated.
// Executions are bounded by a worker pool of Workers slots (default
// GOMAXPROCS); goroutines waiting on an in-flight identity do not hold a
// slot, so fan-out can be arbitrarily wide without deadlock. Each
// simulation runs single-threaded and is a pure function of its
// configuration, program, and budgets, so results are bit-identical to
// sequential execution regardless of Workers (run provenance metadata such
// as wall time necessarily differs; no simulated statistic does). Sweep,
// SweepE and RunAll fan work across the pool while returning or emitting
// results in paper order; with Workers == 1 they degrade to strictly
// sequential execution, which also makes the RunEvent order deterministic.
//
// # Storage
//
// Each worker slot owns one spare machine (sim.Spare), so a point pays
// for its simulation, not for its machine's storage. A detailed or
// sampled point is built in the tables its worker's last point left:
// every table its configuration shares the geometry of is cleared to
// exactly what a fresh allocation holds, so a reused point equals a
// fresh one byte for byte, and the rest is allocated as sim.New does. A
// point that fails or panics drops its worker's spare; the worker's next
// point allocates afresh. Store-served and replayed points build no
// simulator and leave the spare as it was.
package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"tracecache/internal/program"
	"tracecache/internal/resultstore"
	"tracecache/internal/sampling"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
	"tracecache/internal/workload"
)

// Runner executes simulations with memoization, so configurations shared
// between experiments (baseline, promotion, packing) are simulated once.
// See the package comment for the execution order and the concurrency
// contract.
type Runner struct {
	// Warmup instructions retire before measurement; Budget instructions
	// are then measured.
	Warmup uint64
	Budget uint64
	// FastForward, when non-zero, executes that many committed instructions
	// functionally before the detailed phases (sim.Config.FastForwardInsts):
	// each point's simulator steps its own prefix, warming its caches,
	// predictors, bias table and trace cache on the way, so a point's
	// result equals tcsim -ffwd on the same configuration.
	FastForward uint64
	// Workers bounds concurrently executing simulations; non-positive
	// selects GOMAXPROCS. It must be set before the first Run/Sweep call;
	// later changes have no effect.
	Workers int
	// Check runs every simulation with the self-verification layer
	// (sim.Config.Check) enabled. Checking changes no simulated
	// statistic; a run that reports violations fails with an error
	// carrying the violation report. Set before the first Run call.
	Check bool
	// Replay enables the front-end replay fast path: every detailed
	// request whose configuration differs from the baseline machine at
	// the runner's budgets only in front-end axes (sim.FrontEndEquivalent)
	// is replayed from the benchmark's committed stream instead of
	// simulated — producing front-end statistics with stats.ProvReplay
	// provenance and zero cycle-domain statistics, within the fidelity
	// envelope of check.CompareReplay (see DESIGN.md §9). The stream is
	// recorded functionally, once per benchmark, so a replayed point's
	// result does not depend on which point got there first. Points that
	// vary core-side axes, and all runs when Check is set, simulate
	// detailed. Set before the first Run call.
	Replay bool
	// Store, when non-nil, is the persistent content-addressed result
	// store consulted before every simulation (after the in-process memo,
	// before replay and the worker's detailed run): a valid entry whose
	// key — full configuration hash, benchmark, execution mode — matches
	// the request is served verbatim with stats.ProvStore provenance and
	// zero simulation; a completed simulation is persisted back, so later
	// processes and users pay nothing for the same point. Each request
	// reads and writes exactly one mode (DESIGN.md §11): sampled requests
	// the sampled entries, replaying requests the replay entries, every
	// other request the detailed ones. Check runs bypass the store
	// entirely in both directions — a checked run must actually simulate,
	// and its purpose is to distrust stored numbers. Set before the first
	// Run call.
	Store *resultstore.Store
	// Sampling, when enabled, is the schedule RunSampledE and SweepSampledE
	// drive (see internal/sampling): Budget becomes the total committed-
	// stream extent each sampled run covers, window/period/warmup/seed come
	// from here, and Warmup is unused on the sampled path (each window
	// carries its own warmup). The detailed path (RunE, SweepE) ignores
	// this field entirely. Set before the first RunSampledE call.
	Sampling sim.SamplingParams
	// OnRun, when non-nil, receives run-lifecycle events (see RunEvent),
	// result-store errors included. It is called from the goroutines
	// executing or awaiting runs, so it may be called concurrently, and
	// it must serialize whatever it shares (journal.RunnerListener does).
	// Set before the first Run call.
	OnRun func(RunEvent)

	mu sync.Mutex
	// slots holds the free worker slots, each one worker's spare machine;
	// it is sized from Workers on first use.
	slots  chan *sim.Spare
	runs   map[memoKey]*runEntry
	traces map[string]*traceEntry // per-benchmark committed streams (Replay)
}

// runEntry is one singleflight memoization slot: done closes once the
// result is final, and it is immutable afterwards.
type runEntry struct {
	done  chan struct{}
	label string
	result
}

// NewRunner builds a runner with the given instruction budgets.
func NewRunner(warmup, budget uint64) *Runner {
	return &Runner{
		Warmup: warmup,
		Budget: budget,
		runs:   make(map[memoKey]*runEntry),
	}
}

// workers resolves the effective worker-pool size.
func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// acquire claims a worker slot, creating the pool on first use, and
// returns the slot's spare machine, which only the caller uses until it
// calls the returned release function.
func (r *Runner) acquire() (*sim.Spare, func()) {
	r.mu.Lock()
	if r.slots == nil {
		n := r.workers()
		r.slots = make(chan *sim.Spare, n)
		for i := 0; i < n; i++ {
			r.slots <- new(sim.Spare)
		}
	}
	slots := r.slots
	r.mu.Unlock()
	sp := <-slots
	return sp, func() { slots <- sp }
}

// emit delivers a run-lifecycle event to the OnRun listener, if any.
func (r *Runner) emit(ev RunEvent) {
	if r.OnRun != nil {
		r.OnRun(ev)
	}
}

// Benchmarks returns the benchmark names in paper order.
func (r *Runner) Benchmarks() []string { return workload.Names() }

// ShortBenchmarks returns the abbreviated axis labels of the paper's
// figures.
func (r *Runner) ShortBenchmarks() []string {
	names := workload.Names()
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = workload.ShortName(n)
	}
	return out
}

// RunE simulates the benchmark under the configuration, memoized by
// content (see the package comment). Concurrent calls with the same
// identity share one execution.
func (r *Runner) RunE(cfg sim.Config, bench string) (*stats.Run, error) {
	e := r.do(r.newRequest(cfg, bench, modeDetailed, nil))
	return e.run, e.err
}

// RunConfiguredE is RunE with a per-benchmark configuration hook applied
// before simulation; static promotion uses it because its annotations
// depend on the program. The memo identity is taken before the hook runs,
// so the hook runs at most once per identity; the store key is taken
// after it.
func (r *Runner) RunConfiguredE(cfg sim.Config, bench string, prep func(*sim.Config, *program.Program)) (*stats.Run, error) {
	e := r.do(r.newRequest(cfg, bench, modeDetailed, prep))
	return e.run, e.err
}

// runMode is how a request is executed: a full detailed measurement, or
// a sampled estimate under Runner.Sampling.
type runMode uint8

const (
	modeDetailed runMode = iota
	modeSampled
)

// request is one run request: a configuration, with the runner's budgets
// applied, on a benchmark in one mode. prep, when non-nil, adjusts the
// configuration for the program once it is known.
type request struct {
	cfg   sim.Config
	bench string
	mode  runMode
	prep  func(*sim.Config, *program.Program)
}

// memoKey is a request's identity: what it computes, not what it is
// called, so two configurations that share a name never share a result.
type memoKey struct {
	hash, bench string
	mode        runMode
}

// newRequest applies the runner's budgets to cfg for the mode.
func (r *Runner) newRequest(cfg sim.Config, bench string, mode runMode, prep func(*sim.Config, *program.Program)) request {
	cfg.WarmupInsts = r.Warmup
	cfg.MaxInsts = r.Budget
	cfg.FastForwardInsts = r.FastForward
	cfg.Check = r.Check
	if mode == modeSampled {
		cfg.WarmupInsts = 0 // each window carries its own warmup
		cfg.Sampling = r.Sampling
	}
	return request{cfg: cfg, bench: bench, mode: mode, prep: prep}
}

// label is the request's RunEvent.Key (stats.PointLabel).
func (q request) label() string {
	var sm *stats.SamplingMeta
	if q.mode == modeSampled {
		p := q.cfg.Sampling
		sm = &stats.SamplingMeta{WindowInsts: p.WindowInsts, PeriodInsts: p.PeriodInsts,
			WarmupInsts: p.WarmupInsts, Seed: p.Seed}
	}
	return stats.PointLabel(q.cfg.Name, q.bench, sm)
}

// do is the singleflight core: at most one goroutine executes an
// identity; the rest wait for its entry and share the result. The
// executing request emits RunQueued/RunStarted/RunDone with the result's
// provenance; every sharing request emits one memoized RunDone after the
// result is final, carrying the identical *stats.Run.
func (r *Runner) do(q request) *runEntry {
	key := memoKey{hash: q.cfg.Hash(), bench: q.bench, mode: q.mode}
	label := q.label()
	r.mu.Lock()
	if e, ok := r.runs[key]; ok {
		r.mu.Unlock()
		<-e.done
		r.emit(RunEvent{
			Phase: RunDone, Key: label, Config: q.cfg.Name, Benchmark: q.bench,
			Run: e.run, Err: e.err,
			Memoized: true, Provenance: stats.ProvMemoized,
		})
		return e
	}
	e := &runEntry{done: make(chan struct{}), label: label}
	r.runs[key] = e
	r.mu.Unlock()

	r.emit(RunEvent{Phase: RunQueued, Key: label, Config: q.cfg.Name, Benchmark: q.bench})
	e.result = r.execute(q, label)
	r.emit(RunEvent{
		Phase: RunDone, Key: label, Config: q.cfg.Name, Benchmark: q.bench,
		Run: e.run, Err: e.err,
		Provenance: e.provenance, StoreErr: e.storeErr,
		QueueWait: e.queueWait, Wall: e.wall,
	})
	close(e.done)
	return e
}

// result carries one executed request's outcome plus the provenance and
// timing its RunDone event carries.
type result struct {
	run *stats.Run
	// sampled is the aggregate of a sampled request; run then holds its
	// pooled window counters.
	sampled    *stats.Sampled
	err        error
	provenance string
	// storeErr joins the result-store errors the request met.
	storeErr  error
	queueWait time.Duration
	wall      time.Duration
}

// execute resolves one request under a worker slot, trying in order the
// persistent store, replay of the benchmark's recorded stream, and a
// detailed or sampled simulation. It converts panics from configuration
// or simulator internals into errors, so a bad config in a parallel sweep
// fails that sweep instead of the process, and persists every result it
// computed. Result-store errors do not fail the request: they ride on
// its result as storeErr.
func (r *Runner) execute(q request, key string) (res result) {
	cfg := q.cfg
	var getErr error
	// Registered before the recover defer, so it runs after it (LIFO) and
	// observes the final result — including panics converted to errors,
	// which it must not persist. cfg is read after prep has run.
	defer func() {
		res.storeErr = errors.Join(getErr, r.storePut(cfg, q.bench, res))
	}()
	defer func() {
		if p := recover(); p != nil {
			res = result{err: fmt.Errorf("experiments: %s: panic: %v", key, p),
				queueWait: res.queueWait, wall: res.wall}
		}
	}()
	fail := func(err error) result {
		return result{err: fmt.Errorf("experiments: %s: %w", key, err),
			queueWait: res.queueWait, wall: res.wall}
	}
	prog, err := workload.SharedProgram(q.bench)
	if err != nil {
		return fail(err)
	}
	//tcvet:ignore determinism wall-clock telemetry only: queue-wait measurement start, never simulated state
	queuedAt := time.Now()
	spare, release := r.acquire()
	defer release()
	//tcvet:ignore determinism wall-clock telemetry only: queue wait for RunEvent and the journal, never simulated state
	res.queueWait = time.Since(queuedAt)
	r.emit(RunEvent{Phase: RunStarted, Key: key, Config: cfg.Name, Benchmark: q.bench,
		QueueWait: res.queueWait})
	//tcvet:ignore determinism wall-clock telemetry only: run-wall measurement start, never simulated state
	startedAt := time.Now()
	defer func() {
		//tcvet:ignore determinism wall-clock telemetry only: run wall for RunEvent and the journal, never simulated state
		res.wall = time.Since(startedAt)
	}()
	if q.prep != nil {
		q.prep(&cfg, prog)
	}
	replay := r.replays(q.mode, cfg)

	// Persistent-store fast path: a prior process (or job) that computed
	// this exact point — same full configuration hash, benchmark, and
	// fidelity mode — left its result on disk; serve it verbatim. Checked
	// runs must actually simulate, so Check bypasses the store.
	if r.Store != nil && !r.Check {
		e, err := r.storeGet(cfg, q.bench, storeMode(q.mode, replay))
		if e != nil {
			res.run, res.sampled = e.Run, e.Sampled
			res.provenance = stats.ProvStore
			return res
		}
		getErr = err
	}

	// Replay fast path: every eligible point, the benchmark's first
	// included, replays the one committed stream recorded for it.
	if replay {
		te := r.stream(cfg, prog, q.bench)
		if te.err != nil {
			return fail(fmt.Errorf("recording: %w", te.err))
		}
		run, err := replayTrace(cfg, prog, te.hdr, te.recs)
		if err != nil {
			return fail(err)
		}
		res.run = run
		res.provenance = stats.ProvReplay
		return res
	}

	// The simulator takes the worker's spare; only a point that succeeds
	// gives its tables back for the worker's next point.
	s, err := spare.New(cfg, prog)
	if err != nil {
		return fail(err)
	}
	if q.mode == modeSampled {
		out, err := sampling.Run(s)
		if err != nil {
			return fail(err)
		}
		if chk := s.Checker(); chk != nil && chk.Total() > 0 {
			return fail(fmt.Errorf("%s", chk.Report()))
		}
		if len(out.Violations) > 0 {
			return fail(fmt.Errorf("sampling audit: %d violation(s), first: %s",
				len(out.Violations), out.Violations[0].Detail))
		}
		res.run, res.sampled = out.Run, out.Sampled
		res.provenance = stats.ProvSampled
		spare.Keep(s)
		return res
	}

	res.provenance = stats.ProvCold
	res.run = s.Run()
	if chk := s.Checker(); chk != nil && chk.Total() > 0 {
		return fail(fmt.Errorf("%s", chk.Report()))
	}
	spare.Keep(s)
	return res
}

// SweepE runs the configuration over every benchmark, fanning the runs
// across the worker pool, and returns them in paper order. The first error
// (in paper order) is returned with a nil slice.
func (r *Runner) SweepE(cfg sim.Config) ([]*stats.Run, error) {
	return sweep(r, func(bench string) (*stats.Run, error) { return r.RunE(cfg, bench) })
}

// sweep calls run for every benchmark, fanning the calls across the
// worker pool (sequentially with one worker), and returns the results in
// paper order. The first error (in paper order) is returned with a nil
// slice.
func sweep[T any](r *Runner, run func(bench string) (T, error)) ([]T, error) {
	names := workload.Names()
	out := make([]T, len(names))
	if r.workers() <= 1 {
		for i, b := range names {
			v, err := run(b)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, b := range names {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			out[i], errs[i] = run(b)
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AvgEffRateE returns the mean effective fetch rate of the configuration
// across all benchmarks.
func (r *Runner) AvgEffRateE(cfg sim.Config) (float64, error) {
	runs, err := r.SweepE(cfg)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, run := range runs {
		sum += run.EffFetchRate()
	}
	return sum / float64(len(runs)), nil
}

// CachedKeys lists the labels of memoized runs (for tests), one per memo
// slot. In-flight runs are included; completed and failed runs are not
// distinguished.
func (r *Runner) CachedKeys() []string {
	r.mu.Lock()
	keys := make([]string, 0, len(r.runs))
	for _, e := range r.runs {
		keys = append(keys, e.label)
	}
	r.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// RunAll executes the experiments against the runner, fanning them across
// the worker pool, and calls emit with each experiment's output in the
// given order (streaming: an experiment is emitted as soon as it and all
// its predecessors have finished). Panics inside an experiment are
// converted to errors; emission stops at the first failed experiment and
// its error is returned, joined with any later failures. With Workers == 1
// the experiments run strictly sequentially, and later experiments are not
// started after a failure.
func RunAll(r *Runner, exps []Experiment, emit func(Experiment, string)) error {
	if r.workers() <= 1 {
		for _, e := range exps {
			out, err := runExperiment(r, e)
			if err != nil {
				return err
			}
			emit(e, out)
		}
		return nil
	}
	type result struct {
		done chan struct{}
		out  string
		err  error
	}
	results := make([]*result, len(exps))
	for i, e := range exps {
		res := &result{done: make(chan struct{})}
		results[i] = res
		go func(e Experiment, res *result) {
			defer close(res.done)
			res.out, res.err = runExperiment(r, e)
		}(e, res)
	}
	var errs []error
	for i, res := range results {
		<-res.done
		if res.err != nil {
			errs = append(errs, res.err)
			continue
		}
		if errs == nil {
			emit(exps[i], res.out)
		}
	}
	return errors.Join(errs...)
}

// runExperiment renders one experiment. Simulation failures propagate as
// errors through the experiment bodies; the recover is a backstop for
// programming errors inside a body, so a parallel tcbench fails that
// experiment instead of the process.
func runExperiment(r *Runner, e Experiment) (out string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiment %s: panic: %v", e.ID, p)
		}
	}()
	out, err = e.Run(r)
	if err != nil {
		return "", fmt.Errorf("experiment %s: %w", e.ID, err)
	}
	return out, nil
}
