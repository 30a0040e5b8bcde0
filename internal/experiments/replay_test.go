package experiments

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"tracecache/internal/config"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
)

// replayRunner builds a sequential runner with the replay fast path on.
func replayRunner() *Runner {
	r := NewRunner(5_000, 15_000)
	r.Workers = 1
	r.Replay = true
	return r
}

// frontEndSweep is a small sweep varying only front-end axes.
func frontEndSweep() []sim.Config {
	return []sim.Config{config.Baseline(), config.Promotion(64), config.Packing(), config.Best()}
}

func provenanceOf(t *testing.T, run *stats.Run) string {
	t.Helper()
	if run.Meta == nil {
		t.Fatal("run has no Meta")
	}
	return run.Meta.Provenance
}

// withoutMeta returns a copy of the run without its provenance metadata
// (wall time, hostname and provenance legitimately differ between runs).
func withoutMeta(run *stats.Run) stats.Run {
	c := *run
	c.Meta = nil
	return c
}

// TestRunnerReplaySweep drives a front-end sweep through a replaying
// runner: every point replays, the first one included, and replayed
// statistics stay within the fidelity envelope of a detailed twin.
func TestRunnerReplaySweep(t *testing.T) {
	r := replayRunner()
	log := &eventLog{}
	r.OnRun = log.listen

	const bench = "gcc"
	runs := make(map[string]*stats.Run)
	for _, cfg := range frontEndSweep() {
		run, err := r.RunE(cfg, bench)
		if err != nil {
			t.Fatal(err)
		}
		runs[cfg.Name] = run
	}
	for _, cfg := range frontEndSweep() {
		run := runs[cfg.Name]
		if p := provenanceOf(t, run); p != stats.ProvReplay {
			t.Errorf("%s provenance = %q, want %q", cfg.Name, p, stats.ProvReplay)
		}
		if run.Cycles != 0 || run.IPC() != 0 {
			t.Errorf("%s: cycle-domain stats defined under replay: cycles=%d", cfg.Name, run.Cycles)
		}
		if run.Retired < r.Budget || run.Fetches == 0 {
			t.Errorf("%s: replay measured %d insts in %d fetches, want >= %d", cfg.Name, run.Retired, run.Fetches, r.Budget)
		}
	}
	replays := 0
	for _, ev := range log.byPhase(RunDone) {
		if ev.Provenance == stats.ProvReplay {
			replays++
		}
	}
	if replays != 4 {
		t.Errorf("%d RunDone events with replay provenance, want 4", replays)
	}

	// Fidelity: a detailed runner with the same budgets must agree on the
	// effective fetch rate within the documented envelope.
	det := NewRunner(r.Warmup, r.Budget)
	det.Workers = 1
	for _, cfg := range frontEndSweep() {
		dRun, err := det.RunE(cfg, bench)
		if err != nil {
			t.Fatal(err)
		}
		dr, rr := dRun.EffFetchRate(), runs[cfg.Name].EffFetchRate()
		if delta := math.Abs(rr-dr) / dr * 100; delta > 8 {
			t.Errorf("%s: eff rate detailed=%.4f replayed=%.4f (%.2f%% apart)", cfg.Name, dr, rr, delta)
		}
	}
}

// TestRunnerReplayDeterminism pins replay as a pure function of the
// request: two sequential runners requesting the same points in opposite
// orders and a four-worker runner requesting them concurrently return
// identical statistics for every point. Every front-end-equivalent point
// replays — whichever is requested first — and measures its full budget;
// the oracle point varies a core-side axis and simulates detailed.
func TestRunnerReplayDeterminism(t *testing.T) {
	type point struct {
		cfg   sim.Config
		bench string
	}
	var pts []point
	for _, bench := range []string{"compress", "m88ksim"} {
		for _, cfg := range append(frontEndSweep(), config.Oracle(config.Best())) {
			pts = append(pts, point{cfg, bench})
		}
	}
	label := func(p point) string { return p.cfg.Name + "/" + p.bench }

	sequential := func(order []point) map[string]*stats.Run {
		r := replayRunner()
		out := make(map[string]*stats.Run)
		for _, p := range order {
			run, err := r.RunE(p.cfg, p.bench)
			if err != nil {
				t.Fatal(err)
			}
			out[label(p)] = run
		}
		return out
	}
	forward := sequential(pts)
	reversed := make([]point, len(pts))
	for i, p := range pts {
		reversed[len(pts)-1-i] = p
	}
	backward := sequential(reversed)

	r := replayRunner()
	r.Workers = 4
	parallel := make(map[string]*stats.Run)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range pts {
		wg.Add(1)
		go func(p point) {
			defer wg.Done()
			run, err := r.RunE(p.cfg, p.bench)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			parallel[label(p)] = run
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for _, p := range pts {
		key := label(p)
		want := stats.ProvReplay
		if p.cfg.Engine.MemOracle {
			want = stats.ProvCold
		}
		for name, runs := range map[string]map[string]*stats.Run{"forward": forward, "backward": backward, "parallel": parallel} {
			run := runs[key]
			if got := provenanceOf(t, run); got != want {
				t.Errorf("%s %s: provenance %q, want %q", name, key, got, want)
			}
			if run.Retired < r.Budget {
				t.Errorf("%s %s: retired %d, want >= %d", name, key, run.Retired, r.Budget)
			}
		}
		f := withoutMeta(forward[key])
		if b := withoutMeta(backward[key]); !reflect.DeepEqual(f, b) {
			t.Errorf("%s: forward and backward orders differ:\n fwd %+v\n bwd %+v", key, f, b)
		}
		if par := withoutMeta(parallel[key]); !reflect.DeepEqual(f, par) {
			t.Errorf("%s: sequential and parallel runners differ:\n seq %+v\n par %+v", key, f, par)
		}
	}
}

// TestRunnerReplayWithFastForward: Replay composes with FastForward. The
// replay loop treats the prefix as warm-up, so every eligible point
// replays, measures its full budget, and returns the same statistics
// whatever order the points are requested in.
func TestRunnerReplayWithFastForward(t *testing.T) {
	const ffwd = 20_000
	sweep := func(cfgs []sim.Config) map[string]*stats.Run {
		r := replayRunner()
		r.FastForward = ffwd
		out := make(map[string]*stats.Run)
		for _, cfg := range cfgs {
			run, err := r.RunE(cfg, "gcc")
			if err != nil {
				t.Fatal(err)
			}
			if p := provenanceOf(t, run); p != stats.ProvReplay {
				t.Errorf("%s provenance = %q, want %q", cfg.Name, p, stats.ProvReplay)
			}
			if run.Meta.FastForwardInsts != ffwd {
				t.Errorf("%s: meta fast-forward = %d, want %d", cfg.Name, run.Meta.FastForwardInsts, ffwd)
			}
			if run.Retired < r.Budget {
				t.Errorf("%s: retired %d, want >= %d", cfg.Name, run.Retired, r.Budget)
			}
			out[cfg.Name] = run
		}
		return out
	}
	cfgs := []sim.Config{config.Baseline(), config.Promotion(64)}
	a := sweep(cfgs)
	b := sweep([]sim.Config{cfgs[1], cfgs[0]})
	for _, cfg := range cfgs {
		if x, y := withoutMeta(a[cfg.Name]), withoutMeta(b[cfg.Name]); !reflect.DeepEqual(x, y) {
			t.Errorf("%s: result depends on request order:\n first  %+v\n second %+v", cfg.Name, x, y)
		}
	}
}

// TestRunnerReplayCoreAxisDetailed pins eligibility: a point that varies
// a core-side axis (the perfect-disambiguation oracle) must simulate
// detailed even though a front-end-equivalent recording exists.
func TestRunnerReplayCoreAxisDetailed(t *testing.T) {
	r := replayRunner()
	if _, err := r.RunE(config.Baseline(), "compress"); err != nil {
		t.Fatal(err)
	}
	run, err := r.RunE(config.Oracle(config.Best()), "compress")
	if err != nil {
		t.Fatal(err)
	}
	if p := provenanceOf(t, run); p != stats.ProvCold {
		t.Errorf("oracle provenance = %q, want %q", p, stats.ProvCold)
	}
	if run.Cycles == 0 {
		t.Error("oracle run has no cycle-domain stats; replay was not bypassed")
	}
}

// TestRunnerReplayCheckBypass pins the Check interaction: checked runs
// are always detailed (the self-verification layer needs the core), so
// Replay+Check must produce fully detailed, checked results.
func TestRunnerReplayCheckBypass(t *testing.T) {
	r := replayRunner()
	r.Check = true
	for _, cfg := range []sim.Config{config.Baseline(), config.Packing()} {
		run, err := r.RunE(cfg, "compress")
		if err != nil {
			t.Fatal(err)
		}
		if p := provenanceOf(t, run); p != stats.ProvCold {
			t.Errorf("%s checked provenance = %q, want %q", cfg.Name, p, stats.ProvCold)
		}
		if run.Cycles == 0 {
			t.Errorf("%s: checked run missing cycle stats", cfg.Name)
		}
	}
}
