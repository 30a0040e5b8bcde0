package sampling

import (
	"bytes"
	"testing"

	"tracecache/internal/check"
	"tracecache/internal/config"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
	"tracecache/internal/workload"
)

// testParams is a small schedule that still exercises every phase:
// 10 windows of 1k instructions at 20k periods over a 200k budget.
func testParams() sim.SamplingParams {
	return sim.SamplingParams{
		WindowInsts: 1000,
		PeriodInsts: 20_000,
		WarmupInsts: 1000,
		Seed:        1,
	}
}

func sampledConfig(t *testing.T) sim.Config {
	t.Helper()
	cfg := config.Baseline()
	cfg.MaxInsts = 200_000
	cfg.WarmupInsts = 0
	cfg.Sampling = testParams()
	return cfg
}

func runSampled(t *testing.T, cfg sim.Config, bench string) *Result {
	t.Helper()
	prog, err := workload.SharedProgram(bench)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if chk := s.Checker(); chk != nil && len(chk.Violations()) != 0 {
		t.Fatalf("simulator self-check violations: %v", chk.Violations())
	}
	return res
}

// TestPlanDeterministicAndSeedSensitive: the schedule is a pure function
// of (params, budget); a different seed yields a different placement, and
// every window (with its warmup) fits inside its own period.
func TestPlanDeterministicAndSeedSensitive(t *testing.T) {
	p := testParams()
	const total = 200_000
	a, b := Plan(p, total), Plan(p, total)
	if len(a) != 10 {
		t.Fatalf("Plan produced %d windows, want 10", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("window %d: schedule not deterministic (%d vs %d)", i, a[i], b[i])
		}
		period := uint64(i) * p.PeriodInsts
		if a[i] < period+p.WarmupInsts || a[i]+p.WindowInsts > period+p.PeriodInsts {
			t.Fatalf("window %d start %d does not fit period [%d,%d) with warmup %d",
				i, a[i], period, period+p.PeriodInsts, p.WarmupInsts)
		}
	}

	p2 := p
	p2.Seed = 2
	c := Plan(p2, total)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

// TestPlanDegenerate: budgets below one period schedule nothing, and a
// period exactly equal to warmup+window pins the window (zero jitter
// span) rather than panicking.
func TestPlanDegenerate(t *testing.T) {
	p := testParams()
	if got := Plan(p, p.PeriodInsts-1); got != nil {
		t.Fatalf("sub-period budget scheduled %v", got)
	}
	p.PeriodInsts = p.WarmupInsts + p.WindowInsts
	for i, ws := range Plan(p, 3*p.PeriodInsts) {
		want := uint64(i)*p.PeriodInsts + p.WarmupInsts
		if ws != want {
			t.Fatalf("pinned window %d at %d, want %d", i, ws, want)
		}
	}
}

// TestRunDeterminism: two sampled runs with the same seed serialize to
// byte-identical JSON (metadata nulled: wall time differs legitimately),
// and a different seed yields a different window placement.
func TestRunDeterminism(t *testing.T) {
	cfg := sampledConfig(t)
	r1 := runSampled(t, cfg, "gcc")
	r2 := runSampled(t, cfg, "gcc")
	r1.Sampled.Meta, r2.Sampled.Meta = nil, nil
	j1, err := r1.Sampled.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r2.Sampled.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("equal seeds diverged:\n%s\nvs\n%s", j1, j2)
	}

	cfg.Sampling.Seed = 99
	r3 := runSampled(t, cfg, "gcc")
	diff := false
	for i := range r3.Sampled.Windows {
		if i < len(r1.Sampled.Windows) &&
			r3.Sampled.Windows[i].StartInst != r1.Sampled.Windows[i].StartInst {
			diff = true
		}
	}
	if !diff {
		t.Fatal("seeds 1 and 99 sampled identical window positions")
	}
}

// TestRunAuditAndShape: a sampled run completes its schedule with zero
// audit violations, carries sampled provenance with the schedule in its
// metadata, pools exactly the measured instructions, and estimates every
// headline metric from all windows.
func TestRunAuditAndShape(t *testing.T) {
	cfg := sampledConfig(t)
	res := runSampled(t, cfg, "gcc")
	if len(res.Violations) != 0 {
		t.Fatalf("sampling audit violations: %v", res.Violations)
	}
	s := res.Sampled
	if len(s.Windows) != 10 {
		t.Fatalf("completed %d windows, want 10", len(s.Windows))
	}
	if s.Meta == nil || s.Meta.Provenance != stats.ProvSampled ||
		s.Meta.Sampling == nil || s.Meta.Sampling.Windows != 10 {
		t.Fatalf("sampled meta = %+v, want ProvSampled with 10 windows", s.Meta)
	}
	if res.Run.Meta != s.Meta {
		t.Fatal("pooled run and sampled aggregate carry different metadata")
	}
	if res.Run.Retired != s.MeasuredInsts {
		t.Fatalf("pooled Retired %d != MeasuredInsts %d", res.Run.Retired, s.MeasuredInsts)
	}
	// Retirement is burst-granular: each window covers its budget and
	// overshoots by less than the retire width.
	min, max := uint64(10*cfg.Sampling.WindowInsts), uint64(10*(cfg.Sampling.WindowInsts+uint64(cfg.RetireWidth)))
	if s.MeasuredInsts < min || s.MeasuredInsts > max {
		t.Fatalf("measured %d instructions, want in [%d, %d]", s.MeasuredInsts, min, max)
	}
	for _, e := range []stats.Estimate{s.IPC, s.EffFetchRate, s.MispredictRate, s.TCHitRate} {
		if e.N != 10 || e.Mean <= 0 {
			t.Fatalf("estimate %+v, want n=10 with positive mean", e)
		}
	}
}

// TestRunWithChecker: the lockstep reference model stays green across
// every gap/warmup/window/drain transition (runSampled asserts zero
// checker violations).
func TestRunWithChecker(t *testing.T) {
	cfg := sampledConfig(t)
	cfg.Check = true
	res := runSampled(t, cfg, "go")
	if len(res.Violations) != 0 {
		t.Fatalf("sampling audit violations: %v", res.Violations)
	}
}

// TestRunMatchesDetailedTruth: on a budget where fully detailed
// execution is feasible, the sampled interval estimates cover the
// detailed truth within the committed tolerance — the fidelity contract
// of DESIGN.md §10, as enforced by the ci.sh sampling smoke.
func TestRunMatchesDetailedTruth(t *testing.T) {
	for _, bench := range []string{"gcc", "compress"} {
		cfg := sampledConfig(t)
		res := runSampled(t, cfg, bench)

		dcfg := config.Baseline()
		dcfg.MaxInsts = cfg.MaxInsts
		dcfg.WarmupInsts = 0
		prog, err := workload.SharedProgram(bench)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := sim.New(dcfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		truth := ds.Run()
		tc := ds.TraceCacheStats()
		sm := res.Sampled
		t.Logf("%s: IPC delta %+.2f%% (detailed %.3f, sampled %.3f, 95%% CI half-width %.3f)", bench,
			100*(sm.IPC.Mean-truth.IPC())/truth.IPC(), truth.IPC(), sm.IPC.Mean, sm.IPC.HalfWidth())
		t.Logf("%s: eff-fetch-rate delta %+.2f%% (detailed %.2f, sampled %.2f)", bench,
			100*(sm.EffFetchRate.Mean-truth.EffFetchRate())/truth.EffFetchRate(),
			truth.EffFetchRate(), sm.EffFetchRate.Mean)
		t.Logf("%s: mispredict-rate delta %+.2fpp (detailed %.2f%%, sampled %.2f%%)", bench,
			100*(sm.MispredictRate.Mean-truth.CondMispredictRate()),
			100*truth.CondMispredictRate(), 100*sm.MispredictRate.Mean)

		vs := check.CompareSampled(
			check.GroundTruth{Run: truth, TCLookups: tc.Lookups, TCHits: tc.Hits},
			res.Sampled, check.DefaultSampledTolerance())
		if len(vs) != 0 {
			t.Errorf("%s: sampled estimates outside fidelity envelope: %v", bench, vs)
		}
	}
}

// TestRunRejectsBadSchedules: a config without sampling, and a budget
// below one period, both fail fast.
func TestRunRejectsBadSchedules(t *testing.T) {
	prog, err := workload.SharedProgram("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Baseline()
	cfg.MaxInsts = 200_000
	s, err := sim.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s); err == nil {
		t.Fatal("Run accepted a config without a sampling schedule")
	}

	cfg = sampledConfig(t)
	cfg.MaxInsts = cfg.Sampling.PeriodInsts - 1
	s, err = sim.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s); err == nil {
		t.Fatal("Run accepted a budget below one period")
	}
}
