// Package tracecache is a cycle-level reproduction of "Improving Trace
// Cache Effectiveness with Branch Promotion and Trace Packing" (Patel,
// Evers, Patt; ISCA 1998).
//
// The library contains a complete execution-driven superscalar simulator —
// a small RISC ISA, an architectural interpreter with checkpoint repair, a
// trace-cache fetch mechanism with a fill unit implementing branch
// promotion and trace packing, multiple-branch predictors, a cache
// hierarchy, and an out-of-order execution core with conservative or
// perfect memory disambiguation — plus synthetic stand-ins for the paper's
// benchmark suite and a harness regenerating every table and figure of the
// paper's evaluation.
//
// Quick start:
//
//	prog, _ := tracecache.BenchmarkProgram("gcc")
//	run, _ := tracecache.Simulate(tracecache.BaselineConfig(), prog)
//	fmt.Printf("IPC %.2f, effective fetch rate %.2f\n", run.IPC(), run.EffFetchRate())
//
// The named configurations mirror the paper's machines: BaselineConfig is
// the Section 3 trace cache; PromotionConfig adds Section 4's branch
// promotion; PackingConfig adds Section 5's trace packing; BestConfig
// combines promotion with cost-regulated packing; OracleConfig applies
// Section 6's perfect memory disambiguation.
package tracecache

import (
	"fmt"

	"tracecache/internal/config"
	"tracecache/internal/core"
	"tracecache/internal/experiments"
	"tracecache/internal/obs"
	"tracecache/internal/program"
	"tracecache/internal/sampling"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
	"tracecache/internal/workload"
)

// Core types of the public API.
type (
	// Config parameterises one simulated machine.
	Config = sim.Config
	// Run holds the statistics of one simulation.
	Run = stats.Run
	// Program is an executable image for the simulated ISA.
	Program = program.Program
	// Profile parameterises a synthetic benchmark generator.
	Profile = workload.Profile
	// BranchMix gives the behavioural composition of a profile's branches.
	BranchMix = workload.BranchMix
	// PackPolicy selects how the fill unit splits blocks across segments.
	PackPolicy = core.PackPolicy
	// Simulator runs one program under one configuration.
	Simulator = sim.Simulator
	// Experiment regenerates one table or figure of the paper.
	Experiment = experiments.Experiment
	// Runner executes experiment simulations with memoization.
	Runner = experiments.Runner
	// Replayer drives only the front end (trace cache, fill unit,
	// predictors, L1I) from a recorded retired stream; cycle-domain
	// statistics are undefined under replay.
	Replayer = sim.Replayer
	// SamplingParams is the schedule of the sampled execution mode
	// (Config.Sampling): window, period, per-window warmup, placement seed.
	SamplingParams = sim.SamplingParams
	// SampledRun is the aggregate of one sampled run: per-window samples
	// plus mean/stderr/95% CI estimates of the headline metrics.
	SampledRun = stats.Sampled
)

// Packing policies (Section 5 of the paper).
const (
	// PackAtomic never splits fetch blocks (the baseline).
	PackAtomic = core.PackAtomic
	// PackUnregulated greedily fills every segment slot.
	PackUnregulated = core.PackUnregulated
	// PackChunk2 packs only even numbers of instructions.
	PackChunk2 = core.PackChunk2
	// PackChunk4 packs only multiples of four instructions.
	PackChunk4 = core.PackChunk4
	// PackCostRegulated packs when at least half the segment is empty or
	// it contains a tight loop.
	PackCostRegulated = core.PackCostRegulated
)

// BaselineConfig returns the paper's baseline trace-cache machine.
func BaselineConfig() Config { return config.Baseline() }

// ICacheConfig returns the instruction-cache-only reference machine.
func ICacheConfig() Config { return config.ICache() }

// PromotionConfig returns the baseline plus branch promotion at the given
// consecutive-outcome threshold.
func PromotionConfig(threshold uint32) Config { return config.Promotion(threshold) }

// PackingConfig returns the baseline plus unregulated trace packing.
func PackingConfig() Config { return config.Packing() }

// PromotionPackingConfig combines promotion with the given packing policy.
func PromotionPackingConfig(policy PackPolicy, threshold uint32) Config {
	return config.PromotionPacking(policy, threshold)
}

// BestConfig returns the paper's recommended machine: promotion at
// threshold 64 with cost-regulated packing.
func BestConfig() Config { return config.Best() }

// OracleConfig returns the configuration with perfect memory
// disambiguation (Section 6).
func OracleConfig(c Config) Config { return config.Oracle(c) }

// ConfigByName returns a named configuration ("baseline", "icache",
// "promo-t64", "packing", "promo-pack-costreg", ...).
func ConfigByName(name string) (Config, bool) { return config.ByName(name) }

// ConfigNames lists every named configuration.
func ConfigNames() []string { return config.Names() }

// Benchmarks lists the benchmark names of the paper's Table 1.
func Benchmarks() []string { return workload.Names() }

// BenchmarkProfile returns the named benchmark's generator profile.
func BenchmarkProfile(name string) (Profile, bool) { return workload.ByName(name) }

// BenchmarkProgram generates the synthetic program for a named benchmark.
func BenchmarkProgram(name string) (*Program, error) {
	p, ok := workload.ByName(name)
	if !ok {
		return nil, errUnknownBenchmark(name)
	}
	return p.Generate()
}

// NewSimulator builds a simulator for the program under the configuration.
func NewSimulator(cfg Config, prog *Program) (*Simulator, error) {
	return sim.New(cfg, prog)
}

// NewReplayer builds a front-end-only replay engine for the program under
// the configuration. Record a stream first (Simulator.AttachRecorder),
// decode it with trace.ReadAll and feed the records to
// Replayer.ReplayRecords; one recording serves every configuration that
// varies only front-end axes. Runner.Replay and tcsim -replay do both,
// recording each benchmark's stream functionally (sim.RecordStream). See
// DESIGN.md §9 for the fidelity contract.
func NewReplayer(cfg Config, prog *Program) (*Replayer, error) {
	return sim.NewReplayer(cfg, prog)
}

// Simulate runs the program to its instruction budget under the
// configuration and returns the statistics.
func Simulate(cfg Config, prog *Program) (*Run, error) {
	s, err := sim.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// SimulateSampled estimates the program's statistics by SMARTS-style
// statistical sampling: cfg.MaxInsts becomes the total committed-stream
// budget, covered by alternating functional fast-forward and short
// detailed windows per cfg.Sampling, and the per-window measurements
// aggregate into means with 95% confidence intervals (see DESIGN.md §10
// for the fidelity contract). The error includes any sampling-audit
// violation, so a successful return is a verified schedule.
func SimulateSampled(cfg Config, prog *Program) (*SampledRun, error) {
	s, err := sim.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	res, err := sampling.Run(s)
	if err != nil {
		return nil, err
	}
	if len(res.Violations) > 0 {
		return nil, errSamplingAudit{n: len(res.Violations), first: res.Violations[0].Detail}
	}
	return res.Sampled, nil
}

type errSamplingAudit struct {
	n     int
	first string
}

func (e errSamplingAudit) Error() string {
	return fmt.Sprintf("tracecache: sampling audit: %d violation(s), first: %s", e.n, e.first)
}

// Experiments returns every paper table/figure experiment in order.
func Experiments() []Experiment { return experiments.All() }

// ExtensionExperiments returns the ablation studies beyond the paper's
// figures: static promotion, path associativity, inactive issue, and
// trace-cache size sensitivity.
func ExtensionExperiments() []Experiment { return experiments.Extensions() }

// ExperimentByID returns one experiment ("table2", "fig10", ...).
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }

// ExperimentIDs lists the experiment identifiers in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// NewRunner builds an experiment runner with the given warmup and
// measurement instruction budgets. The runner memoizes simulations and is
// safe for concurrent use; set Runner.Workers to bound parallel
// simulations (default GOMAXPROCS). Set Runner.FastForward to execute a
// functional prefix per run, warming each point's machine exactly as
// Config.FastForwardInsts does under Simulate.
func NewRunner(warmup, budget uint64) *Runner { return experiments.NewRunner(warmup, budget) }

// RunExperiments executes the experiments against the runner, fanning the
// underlying simulations across the runner's worker pool, and calls emit
// with each experiment's rendered output in the given order (outputs are
// identical to sequential execution; see the experiments package
// concurrency contract). The first experiment failure, in order, stops
// emission and is returned.
func RunExperiments(r *Runner, exps []Experiment, emit func(Experiment, string)) error {
	return experiments.RunAll(r, exps, emit)
}

// Observability types. An EventBus attached to a Simulator (via
// Simulator.AttachObserver) receives structured events from the fetch
// engine, fill unit and recovery machinery; an IntervalCollector (via
// Simulator.SetIntervalCollector) accumulates windowed time-series
// telemetry. Both are nil-safe: a detached simulator pays only a nil
// check per instrumentation site.
type (
	// EventBus is the structured-event bus of internal/obs.
	EventBus = obs.Bus
	// Event is one structured simulator event.
	Event = obs.Event
	// EventSink consumes events from an EventBus.
	EventSink = obs.Sink
	// IntervalCollector accumulates per-interval telemetry snapshots.
	IntervalCollector = obs.Collector
	// TimeSeries is the windowed telemetry of one run.
	TimeSeries = obs.TimeSeries
	// ChromeTrace is an EventSink rendering a Chrome/Perfetto trace file.
	ChromeTrace = obs.ChromeTrace
	// Meta is the run-provenance metadata attached to results.
	Meta = stats.Meta
)

// NewEventBus builds an event bus with no sinks attached.
func NewEventBus() *EventBus { return obs.NewBus() }

// NewIntervalCollector builds a time-series collector snapshotting every
// everyCycles cycles (zero selects 10000).
func NewIntervalCollector(everyCycles uint64) *IntervalCollector {
	return obs.NewCollector(everyCycles)
}

// NewChromeTrace builds a Chrome/Perfetto trace-event sink retaining at
// most maxEvents events (non-positive selects the default cap).
func NewChromeTrace(maxEvents int) *ChromeTrace { return obs.NewChromeTrace(maxEvents) }

// RunEvent is one run-lifecycle notification from a Runner, delivered to
// its OnRun listener: the Runner's one reporting channel. A runner with
// no listener pays one nil check per event, and a listener changes no
// simulated statistic and no experiment output.
type RunEvent = experiments.RunEvent

// Analysis summarises a program's dynamic instruction stream (block sizes,
// branch bias, call/indirect mix).
type Analysis = workload.Analysis

// AnalyzeProgram executes the program sequentially for up to limit
// instructions and summarises its dynamic stream.
func AnalyzeProgram(p *Program, limit uint64) Analysis { return workload.Analyze(p, limit) }

type errUnknownBenchmark string

func (e errUnknownBenchmark) Error() string {
	return "tracecache: unknown benchmark " + string(e)
}
