package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"

	"tracecache"
	"tracecache/internal/check"
	"tracecache/internal/config"
	"tracecache/internal/experiments"
	"tracecache/internal/program"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
	"tracecache/internal/trace"
	"tracecache/internal/workload"
)

// Budgets of the three workloads. The expected data under expected/ was
// made with exactly these values; after changing one, rerun with -regen.
const (
	suiteWarmup = 1_000
	suiteBudget = 4_000

	replayWarmup = 20_000
	replayBudget = 100_000

	sampledExtent = 1_000_000
	sampledWindow = 2_000
	sampledWarmup = 10_000
	sampledPeriod = 200_000
	sampledScale  = 8
)

// workloadRun is one workload's life in a benchmark process.
type workloadRun interface {
	// setup builds the inputs of the timed phase; it is timed as setup_s.
	setup(tr *tracer) error
	// prepare loads or recomputes the expected data and fidelity truth
	// for the program seed, outside any timed phase.
	prepare(lg *ledger) error
	// rep runs one fixed unit of work and checks every result.
	rep(tr *tracer, lg *ledger) repStats
}

// repStats counts what one repetition simulated.
type repStats struct {
	points, memoHits   int
	insts              uint64 // committed instructions simulated, replayed or covered
	cycles, wrongPath  uint64
	windows            int
	sampledDetailInsts uint64 // detailed instructions (warmup + window) in sampled runs
}

func (a *repStats) add(b repStats) {
	a.points += b.points
	a.memoHits += b.memoHits
	a.insts += b.insts
	a.cycles += b.cycles
	a.wrongPath += b.wrongPath
	a.windows += b.windows
	a.sampledDetailInsts += b.sampledDetailInsts
}

// generate builds one benchmark program, its generator seed offset by
// the program seed, inside a workload.generate span.
func generate(tr *tracer, name string, scale int, seed int64) (*program.Program, error) {
	p, ok := tracecache.BenchmarkProfile(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	p.Seed += seed
	p = p.Scaled(scale)
	var prog *program.Program
	var err error
	tr.do("workload.generate", false, func() { prog, err = p.Generate() })
	return prog, err
}

// detailedTruth runs the program fully detailed and keeps its counters.
func detailedTruth(cfg sim.Config, prog *program.Program) (truthRun, error) {
	s, err := tracecache.NewSimulator(cfg, prog)
	if err != nil {
		return truthRun{}, err
	}
	return truthOf(s, s.Run()), nil
}

// truthOf keeps a finished run's counters, Meta excluded, and its
// simulator's trace cache probe counters.
func truthOf(s *tracecache.Simulator, run *stats.Run) truthRun {
	tc := s.TraceCacheStats()
	t := truthRun{Run: *run, TCLookups: tc.Lookups, TCHits: tc.Hits}
	t.Run.Meta = nil
	return t
}

// ---------------------------------------------------------------- suite

// suite runs all 15 paper experiments along tcbench -exp all's path, on
// the paper's fixed programs: its expected output is tcbench's
// byte-identity contract, so the program seed does not apply.
type suite struct {
	want *expected
	gate *digestGate
}

func suiteParams() string { return fmt.Sprintf("warmup=%d insts=%d", suiteWarmup, suiteBudget) }

func (s *suite) setup(tr *tracer) error {
	for _, name := range tracecache.Benchmarks() {
		if _, err := generate(tr, name, 1, defaultSeed); err != nil {
			return err
		}
	}
	return nil
}

func (s *suite) prepare(*ledger) error {
	// The Runner generates through the process-wide program cache; fill
	// it now so no repetition pays for generation.
	for _, name := range tracecache.Benchmarks() {
		if _, err := workload.SharedProgram(name); err != nil {
			return err
		}
	}
	want, err := loadExpected(wSuite, suiteParams())
	if err != nil {
		return err
	}
	s.want, s.gate = want, newGate(want.Points)
	return nil
}

func (s *suite) rep(tr *tracer, lg *ledger) repStats {
	st, text, err := runSuite(tr, lg, s.gate)
	lg.op("suite", err)
	got := digest(text)
	var terr error
	if got != s.want.Text {
		terr = fmt.Errorf("rendered experiments digest %s, want %s", got, s.want.Text)
	}
	lg.op("rendered experiments", terr)
	return st
}

// runSuite runs every paper experiment on a fresh memoizing Runner with
// one worker, timing each simulated point from the Runner's OnRun events
// and checking its digest.
func runSuite(tr *tracer, lg *ledger, gate *digestGate) (repStats, string, error) {
	var (
		mu sync.Mutex
		st repStats
	)
	r := tracecache.NewRunner(suiteWarmup, suiteBudget)
	r.Workers = 1
	r.OnRun = func(ev tracecache.RunEvent) {
		switch ev.Phase {
		case experiments.RunStarted:
			tr.pointStart(ev.Key, "experiments.point")
		case experiments.RunDone:
			mu.Lock()
			defer mu.Unlock()
			if ev.Memoized {
				st.memoHits++
				return
			}
			tr.pointEnd(ev.Key, "experiments.point")
			st.points++
			if ev.Err != nil {
				lg.op(ev.Key, ev.Err)
				return
			}
			st.insts += suiteWarmup + ev.Run.Retired
			st.cycles += ev.Run.Cycles
			st.wrongPath += ev.Run.FetchedWrong
			lg.op(ev.Key, gate.check(ev.Key, runDigest(ev.Run)))
		}
	}
	var text strings.Builder
	err := tracecache.RunExperiments(r, tracecache.Experiments(), func(e tracecache.Experiment, out string) {
		text.WriteString(e.ID + "\n" + out + "\n")
	})
	return st, text.String(), err
}

// ---------------------------------------------------------- frontend-replay

// replayBenches mixes small loopy programs with large branchy ones.
var replayBenches = []string{"compress", "m88ksim", "li", "gcc", "go"}

// replayRecordConfig is the configuration each stream is recorded under;
// the recording run is the detailed truth for it.
func replayRecordConfig() sim.Config {
	c := config.Baseline()
	c.WarmupInsts, c.MaxInsts = replayWarmup, replayBudget
	return c
}

// replayTruthConfig is the second truth point per benchmark: the paper's
// recommended machine, simulated fully detailed.
func replayTruthConfig() sim.Config {
	c := config.Best()
	c.WarmupInsts, c.MaxInsts = replayWarmup, replayBudget
	return c
}

// replaySweep is the front-end sweep: the Table 2 thresholds, the
// Table 4 packing policies and the Fig 10 configurations, each once.
func replaySweep() []sim.Config {
	var cfgs []sim.Config
	seen := map[string]bool{}
	add := func(c sim.Config) {
		if !seen[c.Name] {
			seen[c.Name] = true
			c.WarmupInsts, c.MaxInsts = replayWarmup, replayBudget
			cfgs = append(cfgs, c)
		}
	}
	add(config.ICache())
	add(config.Baseline())
	for _, t := range experiments.Table2Thresholds {
		add(config.Promotion(t))
	}
	for _, p := range []tracecache.PackPolicy{tracecache.PackUnregulated, tracecache.PackCostRegulated,
		tracecache.PackChunk2, tracecache.PackChunk4} {
		add(config.PromotionPacking(p, config.PromotionThreshold))
	}
	for _, c := range experiments.Fig10Configs() {
		add(c)
	}
	return cfgs
}

// stream is one benchmark's decoded retired stream.
type stream struct {
	bench string
	prog  *program.Program
	hdr   trace.Header
	recs  []trace.Rec
	rec   truthRun // the recording run
}

type frontend struct {
	seed    int64
	cfgs    []sim.Config
	streams []stream
	truth   map[string]truthRun // replayTruthConfig per benchmark
	gate    *digestGate
}

func replayParams() string {
	return fmt.Sprintf("warmup=%d insts=%d configs=%d", replayWarmup, replayBudget, len(replaySweep()))
}

func newFrontend(seed int64) (*frontend, error) {
	f := &frontend{seed: seed, cfgs: replaySweep()}
	rec := replayRecordConfig()
	for _, c := range f.cfgs {
		if !sim.FrontEndEquivalent(c, rec) {
			return nil, fmt.Errorf("sweep config %s differs from the recording outside the front end", c.Name)
		}
	}
	return f, nil
}

// record runs the program detailed with the commit tap attached and
// returns the encoded stream and the run's counters.
func record(cfg sim.Config, prog *program.Program) ([]byte, truthRun, error) {
	s, err := tracecache.NewSimulator(cfg, prog)
	if err != nil {
		return nil, truthRun{}, err
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, s.TraceHeader("perfbench"))
	if err != nil {
		return nil, truthRun{}, err
	}
	s.AttachRecorder(w)
	run := s.Run()
	if err := w.Close(); err != nil {
		return nil, truthRun{}, err
	}
	return buf.Bytes(), truthOf(s, run), nil
}

func (f *frontend) setup(tr *tracer) error {
	streams := make([]stream, 0, len(replayBenches))
	for _, b := range replayBenches {
		prog, err := generate(tr, b, 1, f.seed)
		if err != nil {
			return err
		}
		st := stream{bench: b, prog: prog}
		var data []byte
		tr.do("trace.encode", false, func() { data, st.rec, err = record(replayRecordConfig(), prog) })
		if err != nil {
			return fmt.Errorf("record %s: %w", b, err)
		}
		tr.do("trace.decode", false, func() { st.hdr, st.recs, err = trace.ReadAll(data) })
		if err != nil {
			return fmt.Errorf("decode %s: %w", b, err)
		}
		streams = append(streams, st)
	}
	f.streams = streams
	return nil
}

func (f *frontend) prepare(*ledger) error {
	if f.seed == defaultSeed {
		want, err := loadExpected(wReplay, replayParams())
		if err != nil {
			return err
		}
		f.truth, f.gate = want.Truth, newGate(want.Points)
		return nil
	}
	f.gate = newGate(nil)
	return f.computeTruth()
}

// computeTruth simulates the second truth point of every benchmark.
func (f *frontend) computeTruth() error {
	f.truth = make(map[string]truthRun)
	for _, st := range f.streams {
		t, err := detailedTruth(replayTruthConfig(), st.prog)
		if err != nil {
			return fmt.Errorf("truth %s: %w", st.bench, err)
		}
		f.truth[st.bench] = t
	}
	return nil
}

// replay replays one stream under one configuration.
func (f *frontend) replay(tr *tracer, cfg sim.Config, st *stream) (*stats.Run, check.ReplayStats, error) {
	var (
		run *stats.Run
		rs  check.ReplayStats
		err error
	)
	tr.do("sim.replay", true, func() {
		var rp *tracecache.Replayer
		if rp, err = tracecache.NewReplayer(cfg, st.prog); err != nil {
			return
		}
		if run, err = rp.ReplayRecords(st.hdr, st.recs); err != nil {
			return
		}
		rs.Run = run
		if tc := rp.TraceCache(); tc != nil {
			s := tc.Stats()
			rs.TCLookups, rs.TCHits = s.Lookups, s.Hits
		}
	})
	return run, rs, err
}

func (f *frontend) rep(tr *tracer, lg *ledger) repStats {
	var st repStats
	for i := range f.streams {
		s := &f.streams[i]
		for _, cfg := range f.cfgs {
			key := cfg.Name + "/" + s.bench
			run, _, err := f.replay(tr, cfg, s)
			st.points++
			if err != nil {
				lg.op(key, err)
				continue
			}
			st.insts += uint64(len(s.recs))
			lg.op(key, f.gate.check(key, runDigest(run)))
		}
	}
	return st
}

// truthPoint is one fast-mode result compared with its detailed truth.
type truthPoint struct {
	key       string
	errPct    float64 // |fast - detailed| / detailed of the headline metric, percent
	ciPct     float64 // sampled only: 95% CI half-width / estimate, percent
	violation error   // the fidelity contract's verdict
}

// fidelity replays the truth points and compares each with its detailed
// twin under the replay contract; errPct is the effective-fetch-rate
// error. Each replay's digest is gated like a timed point's.
func (f *frontend) fidelity(lg *ledger) []truthPoint {
	var out []truthPoint
	for i := range f.streams {
		s := &f.streams[i]
		type point struct {
			cfg   sim.Config
			truth truthRun
		}
		points := []point{{replayRecordConfig(), s.rec}}
		if t, ok := f.truth[s.bench]; ok {
			points = append(points, point{replayTruthConfig(), t})
		} else {
			lg.op("truth "+s.bench, errors.New("no detailed truth"))
		}
		for _, tp := range points {
			key := tp.cfg.Name + "/" + s.bench
			run, rs, err := f.replay(nil, tp.cfg, s)
			lg.op(key, err)
			if err != nil {
				continue
			}
			lg.op(key, f.gate.check(key, runDigest(run)))
			d := check.ReplayStats{Run: &tp.truth.Run, TCLookups: tp.truth.TCLookups, TCHits: tp.truth.TCHits}
			de := tp.truth.Run.EffFetchRate()
			out = append(out, truthPoint{
				key:       key,
				errPct:    100 * abs(run.EffFetchRate()-de) / de,
				violation: violations(check.CompareReplay(d, rs, check.DefaultReplayTolerance())),
			})
		}
	}
	return out
}

// ------------------------------------------------------- sampled-paperscale

// sampledBench is one program of the sampled workload.
type sampledBench struct {
	name  string
	scale int
}

// sampledBenches are gcc and go scaled to paper-class static code
// footprints (89k and 66k instructions), which outgrow the modelled trace
// cache and L1I.
var sampledBenches = []sampledBench{{"gcc", sampledScale}, {"go", sampledScale}}

// sampledTruthBenches and sampledTruthConfigs select the truth points,
// simulated fully detailed over the same extent.
var (
	sampledTruthBenches = map[string]bool{"gcc": true}
	sampledTruthConfigs = map[string]bool{"baseline": true, "promo-pack-costreg": true}
)

type sampled struct {
	seed  int64
	progs []*program.Program
	truth map[string]truthRun
	gate  *digestGate
}

func sampledParams() string {
	return fmt.Sprintf("extent=%d window=%d warmup=%d period=%d scale=%d",
		sampledExtent, sampledWindow, sampledWarmup, sampledPeriod, sampledScale)
}

// sampledConfig applies the workload's extent and schedule; the workload
// program seed also seeds the window placement.
func sampledConfig(c sim.Config, seed int64) sim.Config {
	c.WarmupInsts, c.MaxInsts = 0, sampledExtent
	c.Sampling = sim.SamplingParams{
		WindowInsts: sampledWindow, PeriodInsts: sampledPeriod,
		WarmupInsts: sampledWarmup, Seed: uint64(seed),
	}
	return c
}

func (s *sampled) setup(tr *tracer) error {
	progs := make([]*program.Program, 0, len(sampledBenches))
	for _, b := range sampledBenches {
		p, err := generate(tr, b.name, b.scale, s.seed)
		if err != nil {
			return err
		}
		progs = append(progs, p)
	}
	s.progs = progs
	return nil
}

func (s *sampled) prepare(*ledger) error {
	if s.seed == defaultSeed {
		want, err := loadExpected(wSampled, sampledParams())
		if err != nil {
			return err
		}
		s.truth, s.gate = want.Truth, newGate(want.Points)
		return nil
	}
	s.gate = newGate(nil)
	return s.computeTruth()
}

func (s *sampled) computeTruth() error {
	s.truth = make(map[string]truthRun)
	for i, b := range sampledBenches {
		if !sampledTruthBenches[b.name] {
			continue
		}
		for _, c := range experiments.SampledComparisonConfigs() {
			if !sampledTruthConfigs[c.Name] {
				continue
			}
			c.WarmupInsts, c.MaxInsts = 0, sampledExtent
			t, err := detailedTruth(c, s.progs[i])
			if err != nil {
				return fmt.Errorf("truth %s/%s: %w", c.Name, b.name, err)
			}
			s.truth[c.Name+"/"+b.name] = t
		}
	}
	return nil
}

func (s *sampled) run(tr *tracer, c sim.Config, prog *program.Program) (*stats.Sampled, error) {
	var res *stats.Sampled
	var err error
	tr.do("sampling.run", true, func() { res, err = tracecache.SimulateSampled(sampledConfig(c, s.seed), prog) })
	return res, err
}

func (s *sampled) rep(tr *tracer, lg *ledger) repStats {
	var st repStats
	for i, b := range sampledBenches {
		for _, c := range experiments.SampledComparisonConfigs() {
			key := c.Name + "/" + b.name
			res, err := s.run(tr, c, s.progs[i])
			st.points++
			if err != nil {
				lg.op(key, err)
				continue
			}
			st.insts += res.TotalInsts
			st.windows += len(res.Windows)
			st.sampledDetailInsts += res.MeasuredInsts + uint64(len(res.Windows))*res.WarmupInsts
			for _, w := range res.Windows {
				st.cycles += w.Cycles
			}
			lg.op(key, s.gate.check(key, sampledDigest(res)))
		}
	}
	return st
}

// fidelity reruns the truth points sampled and compares each with its
// detailed truth under the sampling contract; errPct is the IPC error.
// Each run's digest is gated like a timed point's.
func (s *sampled) fidelity(lg *ledger) []truthPoint {
	var out []truthPoint
	for i, b := range sampledBenches {
		for _, c := range experiments.SampledComparisonConfigs() {
			key := c.Name + "/" + b.name
			if !sampledTruthBenches[b.name] || !sampledTruthConfigs[c.Name] {
				continue
			}
			t, ok := s.truth[key]
			if !ok {
				lg.op("truth "+key, errors.New("no detailed truth"))
				continue
			}
			res, err := s.run(nil, c, s.progs[i])
			lg.op(key, err)
			if err != nil {
				continue
			}
			lg.op(key, s.gate.check(key, sampledDigest(res)))
			gt := check.GroundTruth{Run: &t.Run, TCLookups: t.TCLookups, TCHits: t.TCHits}
			ipc := t.Run.IPC()
			out = append(out, truthPoint{
				key:       key,
				errPct:    100 * abs(res.IPC.Mean-ipc) / ipc,
				ciPct:     100 * res.IPC.HalfWidth() / res.IPC.Mean,
				violation: violations(check.CompareSampled(gt, res, check.DefaultSampledTolerance())),
			})
		}
	}
	return out
}

// ---------------------------------------------------------------- helpers

func violations(vs []check.Violation) error {
	if len(vs) == 0 {
		return nil
	}
	return fmt.Errorf("%d violation(s), first: %v", len(vs), vs[0])
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
