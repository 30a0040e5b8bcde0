// Package sampling drives a simulator through SMARTS-style statistical
// sampling (Wunderlich et al., ISCA '03): the committed-instruction
// budget is covered by alternating functional fast-forward gaps and
// short detailed windows, and the per-window measurements aggregate into
// interval estimates of the paper's headline metrics. This is what makes
// paper-scale budgets (41M-500M instructions per benchmark) affordable:
// the functional executor runs roughly an order of magnitude faster than
// the detailed engine, so measuring ~1-2% of the stream in detail costs
// wall-clock comparable to a 1M-instruction all-detailed run while
// observing program phases a single-prefix run never reaches.
//
// Schedule. One measurement window per period: period k covers
// committed-stream offsets [k·P, (k+1)·P); its window of W instructions
// starts at k·P + u_k, where the jitter u_k is drawn uniformly from
// [warmup, P−W] by a splitmix64 generator seeded from the schedule seed
// (stratified systematic sampling: every period is sampled, the
// placement varies to avoid aliasing with program loops). The window is
// preceded by a detailed warmup of `warmup` instructions whose
// statistics are discarded — the functional executor warms the
// retired-stream structures (trace cache, fill unit, bias table,
// predictors, caches: see internal/sim/ffwd.go), and the warmup heals
// what it cannot reproduce (pipeline, wrong-path effects, in-flight
// timing).
//
// Every phase transition is audited by check.SamplingAudit (layer
// "sampling"): gaps execute functionally exactly once, windows retire
// their budget, the run covers the total. Fidelity against fully
// detailed truth is bounded by check.CompareSampled on budgets where
// detailed execution is feasible; see DESIGN.md §10 for the contract.
package sampling

import (
	"fmt"

	"tracecache/internal/check"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
)

// rng is a splitmix64 generator: deterministic, seedable, allocation-
// free — the schedule must be a pure function of the seed.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniform returns a value in [0, n) without modulo bias beyond 2^-32
// (n is far below 2^32 in every schedule).
func (r *rng) uniform(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// Plan is the deterministic window schedule of one sampled run: the
// committed-stream offset (from the sampling origin) at which each
// measurement window starts. Exposed so tests can assert determinism
// and seed sensitivity without running a simulator.
func Plan(p sim.SamplingParams, totalInsts uint64) []uint64 {
	periods := int(totalInsts / p.PeriodInsts)
	if periods <= 0 {
		return nil
	}
	r := rng{state: p.Seed}
	span := p.PeriodInsts - p.WindowInsts - p.WarmupInsts
	starts := make([]uint64, periods)
	for k := range starts {
		starts[k] = uint64(k)*p.PeriodInsts + p.WarmupInsts + r.uniform(span+1)
	}
	return starts
}

// Result is one sampled run: the pooled counters of the measured
// windows (ratio statistics become instruction-weighted estimates over
// the measured subset), the per-window aggregate with confidence
// intervals, and any violations from the sampling audit and the
// simulator's self-check layer.
type Result struct {
	// Run pools the window counters; its Meta carries ProvSampled and
	// the schedule, so journals and memo keys never conflate it with a
	// detailed run.
	Run *stats.Run
	// Sampled is the per-window aggregate with interval estimates.
	Sampled *stats.Sampled
	// Violations collects sampling-audit findings (and, when the
	// simulator runs with Config.Check, the lockstep/structural layers'
	// findings surface via Simulator.Checker as usual).
	Violations []check.Violation
}

// Run drives the simulator through its configured sampling schedule.
// The configuration's MaxInsts is the total committed-stream budget
// (functional and detailed combined) measured from the end of the
// FastForwardInsts prefix; Config.Sampling fixes window, period,
// per-window warmup and seed. Config.WarmupInsts is not used in sampled
// mode (each window carries its own warmup). The simulator must be
// fresh.
func Run(s *sim.Simulator) (*Result, error) {
	start := stats.MetaStart()
	cfg := s.Config()
	p := cfg.Sampling
	if !p.Enabled() {
		return nil, fmt.Errorf("sampling: config %q has no sampling schedule", cfg.Name)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	periods := cfg.MaxInsts / p.PeriodInsts
	if periods == 0 {
		return nil, fmt.Errorf("sampling: budget %d smaller than one period %d",
			cfg.MaxInsts, p.PeriodInsts)
	}

	// Functional prefix, exactly as a detailed run would execute it.
	if ff := cfg.FastForwardInsts; ff > 0 {
		if _, err := s.SkipFunctional(ff); err != nil {
			return nil, err
		}
	}

	origin := s.CommittedInsts()
	starts := Plan(p, cfg.MaxInsts)
	audit := check.NewSamplingAudit(origin, cfg.MaxInsts, p.WindowInsts,
		cfg.RetireWidth, cfg.Engine.Window()+64)

	sampled := &stats.Sampled{
		Benchmark:   s.Stats().Benchmark,
		Config:      cfg.Name,
		WindowInsts: p.WindowInsts,
		PeriodInsts: p.PeriodInsts,
		WarmupInsts: p.WarmupInsts,
		Seed:        p.Seed,
		TotalInsts:  cfg.MaxInsts,
		Windows:     make([]stats.WindowSample, 0, len(starts)),
	}
	pooled := &stats.Run{Benchmark: s.Stats().Benchmark, Config: cfg.Name}

	// win is the single reused window buffer: CaptureWindow copies into
	// it, the sample and the pooled accumulation read from it, and the
	// next window overwrites it — no per-window Run allocation.
	var win stats.Run
	for k, ws := range starts {
		measureStart := origin + ws
		warmupStart := measureStart - p.WarmupInsts

		// Gap: fast-forward to the warmup start (the previous window's
		// drain tail may already have passed it; then no gap runs and
		// the window sits a drain-tail later than planned).
		pos := s.CommittedInsts()
		if warmupStart > pos {
			gap := warmupStart - pos
			done, err := s.SkipFunctional(gap)
			if err != nil {
				return nil, fmt.Errorf("sampling window %d: %w", k, err)
			}
			audit.OnGap(pos, gap, done, s.CommittedInsts(), done < gap)
			if done < gap {
				break // program halted inside the gap
			}
		}

		// Detailed warmup, statistics discarded.
		if p.WarmupInsts > 0 {
			pos = s.CommittedInsts()
			s.ResetWindowStats()
			if err := s.RunDetailed(p.WarmupInsts); err != nil {
				return nil, fmt.Errorf("sampling window %d: %w", k, err)
			}
			audit.OnWarmup(pos, p.WarmupInsts, s.CommittedInsts(), s.Halted())
			if s.Halted() {
				break
			}
		}

		// Measurement window, then drain to a committed boundary. The
		// sample is captured before the drain so drain cycles and
		// drain-tail retirements stay out of it.
		pos = s.CommittedInsts()
		s.ResetWindowStats()
		tcBase := s.TraceCacheStats()
		if err := s.RunDetailed(p.WindowInsts); err != nil {
			return nil, fmt.Errorf("sampling window %d: %w", k, err)
		}
		s.CaptureWindow(&win)
		tcNow := s.TraceCacheStats()
		if err := s.DrainPipeline(); err != nil {
			return nil, fmt.Errorf("sampling window %d: %w", k, err)
		}
		audit.OnWindow(pos, s.CommittedInsts(), win.Retired, s.Halted())

		ws := stats.WindowSample{
			Index:           k,
			StartInst:       pos,
			Retired:         win.Retired,
			Cycles:          win.Cycles,
			IPC:             win.IPC(),
			EffFetchRate:    win.EffFetchRate(),
			MispredictRate:  win.CondMispredictRate(),
			CondBranches:    win.CondBranches,
			CondMispredicts: win.CondMispredicts,
			FetchedCorrect:  win.FetchedCorrect,
			UsefulCycles:    win.Cycle[stats.CycleUseful],
			TCLookups:       tcNow.Lookups - tcBase.Lookups,
			TCHits:          tcNow.Hits - tcBase.Hits,
			PromotedFaults:  win.PromotedFaults,
		}
		if ws.TCLookups > 0 {
			ws.TCHitRate = float64(ws.TCHits) / float64(ws.TCLookups)
		}
		sampled.Windows = append(sampled.Windows, ws)
		pooled.Accumulate(&win)
		if s.Halted() {
			break
		}
	}

	// Trailing gap: cover the budget remainder (MaxInsts mod period plus
	// whatever the last period left after its window) so TotalInsts means
	// what it says.
	if pos, end := s.CommittedInsts(), origin+cfg.MaxInsts; !s.Halted() && end > pos {
		gap := end - pos
		done, err := s.SkipFunctional(gap)
		if err != nil {
			return nil, err
		}
		audit.OnGap(pos, gap, done, s.CommittedInsts(), done < gap)
	}

	sampled.Aggregate()
	vs := audit.Finalize(s.CommittedInsts(), sampled.MeasuredInsts)

	meta := stats.NewMeta(start, stats.Meta{
		ConfigHash:       cfg.Hash(),
		WarmupInsts:      p.WarmupInsts,
		MaxInsts:         cfg.MaxInsts,
		FastForwardInsts: cfg.FastForwardInsts,
		Provenance:       stats.ProvSampled,
		Sampling: &stats.SamplingMeta{
			WindowInsts: p.WindowInsts,
			PeriodInsts: p.PeriodInsts,
			WarmupInsts: p.WarmupInsts,
			Seed:        p.Seed,
			Windows:     len(sampled.Windows),
		},
	})
	sampled.Meta = meta
	pooled.Meta = meta

	return &Result{Run: pooled, Sampled: sampled, Violations: vs}, nil
}
