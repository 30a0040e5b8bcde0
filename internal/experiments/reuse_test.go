package experiments

import (
	"reflect"
	"sync"
	"testing"

	"tracecache/internal/config"
	"tracecache/internal/program"
	"tracecache/internal/sampling"
	"tracecache/internal/sim"
	"tracecache/internal/workload"
)

// reusePoint is one request of TestRunnerReuseMatchesFresh. prep sets
// per-point options the runner applies to every point (a fast-forward
// prefix, the self-check layer); the configuration's name keeps the
// point's identity distinct.
type reusePoint struct {
	cfg     sim.Config
	bench   string
	prep    func(*sim.Config)
	sampled bool
	fails   bool
}

// reuseSequence lists points in which each consecutive pair changes some
// table's geometry or drops a table the next point needs, so a worker's
// spare is renewed, reallocated and dropped table by table: the icache
// and trace-cache front ends (L1I size, trace cache present or not); the
// tree, split and single-hybrid predictors; the 8-wide machine's shorter
// trace-cache lines; the ext-tcsize and path-associative trace caches; a
// machine whose window, engine, data caches, tree and indirect tables are
// all smaller; the memory oracle; a fast-forward prefix, a sampled run, a
// checked run, and a point right after a failed one. The benchmarks
// alternate, so memory pages are reused across data images, except for
// two promotion points in a row on gcc: the second renews the bias table
// the first filled with entries for the same branches.
func reuseSequence() []reusePoint {
	small := config.Baseline()
	small.Name = "small-tables"
	small.Engine.FUs = 8
	small.L1DBytes, small.L2Bytes = 32<<10, 512<<10
	small.TreeEntries, small.IndirectEntries = 1<<13, 1<<9
	tc512 := config.Best()
	tc512.Name = "ext-tc512-costreg"
	tc512.TC.Entries = 512
	pathAssoc := config.Packing()
	pathAssoc.Name = "packing-pathassoc"
	pathAssoc.TC.PathAssoc = true
	ffwd := config.Baseline()
	ffwd.Name = "baseline-ffwd"
	checked := config.Promotion(config.PromotionThreshold)
	checked.Name = "promo-checked"
	bad := config.Baseline()
	bad.Name = "bad-engine"
	bad.Engine.FUs = 0
	return []reusePoint{
		{cfg: config.Baseline(), bench: "gcc"},
		{cfg: config.ICache(), bench: "go"},
		{cfg: config.EightWidePromotionHybrid(), bench: "gcc"},
		{cfg: config.EightWide(config.Baseline()), bench: "compress"},
		{cfg: config.Promotion(config.PromotionThreshold), bench: "gcc"},
		{cfg: config.Promotion(32), bench: "gcc"},
		{cfg: small, bench: "go"},
		{cfg: config.Best(), bench: "gcc"},
		{cfg: tc512, bench: "go"},
		{cfg: pathAssoc, bench: "gcc"},
		{cfg: config.Oracle(config.Baseline()), bench: "compress"},
		{cfg: ffwd, bench: "gcc", prep: func(c *sim.Config) { c.FastForwardInsts = 20_000 }},
		{cfg: config.Baseline(), bench: "go", sampled: true},
		{cfg: checked, bench: "gcc", prep: func(c *sim.Config) { c.Check = true }},
		{cfg: bad, bench: "gcc", fails: true},
		{cfg: config.Best(), bench: "go"},
		{cfg: config.ICache(), bench: "gcc"},
	}
}

// reuseRunner is the runner of TestRunnerReuseMatchesFresh.
func reuseRunner(workers int) *Runner {
	r := NewRunner(1_000, 4_000)
	r.Workers = workers
	r.Sampling = sim.SamplingParams{WindowInsts: 500, PeriodInsts: 2_000, WarmupInsts: 500, Seed: 1}
	return r
}

// freshPoint simulates the point as the runner would, budgets included,
// in a simulator of its own from sim.New, and returns its statistics
// without Meta: a stats.Run, or a stats.Sampled for a sampled point.
func freshPoint(t *testing.T, r *Runner, p reusePoint) any {
	t.Helper()
	cfg := p.cfg
	cfg.WarmupInsts, cfg.MaxInsts = r.Warmup, r.Budget
	if p.sampled {
		cfg.WarmupInsts, cfg.Sampling = 0, r.Sampling
	}
	if p.prep != nil {
		p.prep(&cfg)
	}
	prog, err := workload.SharedProgram(p.bench)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg, prog)
	if err != nil {
		t.Fatalf("%s/%s: %v", cfg.Name, p.bench, err)
	}
	if p.sampled {
		out, err := sampling.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		sm := *out.Sampled
		sm.Meta = nil
		return sm
	}
	run := *s.Run()
	run.Meta = nil
	return run
}

// runnerPoint requests the point from the runner and returns its
// statistics as freshPoint does.
func runnerPoint(r *Runner, p reusePoint) (any, error) {
	if p.sampled {
		sm, err := r.RunSampledE(p.cfg, p.bench)
		if err != nil {
			return nil, err
		}
		c := *sm
		c.Meta = nil
		return c, nil
	}
	var prep func(*sim.Config, *program.Program)
	if p.prep != nil {
		prep = func(c *sim.Config, _ *program.Program) { p.prep(c) }
	}
	run, err := r.RunConfiguredE(p.cfg, p.bench, prep)
	if err != nil {
		return nil, err
	}
	c := *run
	c.Meta = nil
	return c, nil
}

// TestRunnerReuseMatchesFresh: a point built from its worker's spare
// machine equals, byte for byte (Meta excluded), the same point built by
// sim.New, whatever the worker's earlier points left in the spare. A
// table that reuse failed to clear, or cleared to anything but what a
// fresh allocation holds, shows up as a differing counter. With four
// workers the points run concurrently, so the race detector (ci.sh runs
// this test under -race) would catch two workers sharing a spare.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	seq := reuseSequence()
	fresh := make([]any, len(seq))
	for i, p := range seq {
		if !p.fails {
			fresh[i] = freshPoint(t, reuseRunner(1), p)
		}
	}
	check := func(t *testing.T, i int, got any, err error) {
		p := seq[i]
		switch {
		case p.fails:
			if err == nil {
				t.Errorf("point %d (%s/%s) succeeded, want an error", i, p.cfg.Name, p.bench)
			}
		case err != nil:
			t.Errorf("point %d (%s/%s): %v", i, p.cfg.Name, p.bench, err)
		case !reflect.DeepEqual(got, fresh[i]):
			t.Errorf("point %d (%s/%s) differs from a fresh simulator:\n got %+v\nwant %+v",
				i, p.cfg.Name, p.bench, got, fresh[i])
		}
	}
	t.Run("workers=1", func(t *testing.T) {
		r := reuseRunner(1)
		for i, p := range seq {
			got, err := runnerPoint(r, p)
			check(t, i, got, err)
		}
	})
	t.Run("workers=4", func(t *testing.T) {
		r := reuseRunner(4)
		got := make([]any, len(seq))
		errs := make([]error, len(seq))
		var wg sync.WaitGroup
		for i, p := range seq {
			wg.Add(1)
			go func(i int, p reusePoint) {
				defer wg.Done()
				got[i], errs[i] = runnerPoint(r, p)
			}(i, p)
		}
		wg.Wait()
		for i := range seq {
			check(t, i, got[i], errs[i])
		}
	})
}
