package experiments

import (
	"math"
	"reflect"
	"testing"

	"tracecache/internal/config"
	"tracecache/internal/metrics"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
)

// replayRunner builds a sequential runner with the replay fast path on:
// Workers == 1 makes which point records deterministic (the first).
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

// TestRunnerReplaySweep drives a front-end sweep through a replaying
// runner: the first point records during its detailed run, every later
// point replays, and replayed statistics stay within the fidelity
// envelope of a detailed twin.
func TestRunnerReplaySweep(t *testing.T) {
	r := replayRunner()
	reg := metrics.NewRegistry()
	r.Metrics = InstrumentRunner(reg)

	const bench = "gcc"
	runs := make(map[string]*stats.Run)
	for _, cfg := range frontEndSweep() {
		run, err := r.RunE(cfg, bench)
		if err != nil {
			t.Fatal(err)
		}
		runs[cfg.Name] = run
	}
	if p := provenanceOf(t, runs["baseline"]); p != stats.ProvCold {
		t.Errorf("recording point provenance = %q, want %q", p, stats.ProvCold)
	}
	for _, name := range []string{"promo-t64", "packing", "promo-pack-costreg"} {
		run := runs[name]
		if p := provenanceOf(t, run); p != stats.ProvReplay {
			t.Errorf("%s provenance = %q, want %q", name, p, stats.ProvReplay)
		}
		if run.Cycles != 0 || run.IPC() != 0 {
			t.Errorf("%s: cycle-domain stats defined under replay: cycles=%d", name, run.Cycles)
		}
		if run.Retired == 0 || run.Fetches == 0 {
			t.Errorf("%s: empty replay stats: %+v", name, run)
		}
	}
	if got := r.Metrics.Replays.Value(); got != 3 {
		t.Errorf("Replays counter = %d, want 3", got)
	}

	// Fidelity: a detailed runner with the same budgets must agree on the
	// effective fetch rate within the documented envelope.
	det := NewRunner(r.Warmup, r.Budget)
	det.Workers = 1
	for _, cfg := range frontEndSweep()[1:] {
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

// TestRunnerReplayWithFastForward: Replay does not apply under
// FastForward, so a replaying runner simulates every point, warming its
// prefix like a plain fast-forwarding runner, and returns the same
// statistics for the same key whether or not it would have recorded.
func TestRunnerReplayWithFastForward(t *testing.T) {
	const ffwd = 20_000
	r := replayRunner()
	r.FastForward = ffwd
	got, err := r.RunE(config.Baseline(), "gcc")
	if err != nil {
		t.Fatal(err)
	}
	plain := NewRunner(r.Warmup, r.Budget)
	plain.Workers = 1
	plain.FastForward = ffwd
	want, err := plain.RunE(config.Baseline(), "gcc")
	if err != nil {
		t.Fatal(err)
	}
	if p := provenanceOf(t, got); p != stats.ProvCold {
		t.Errorf("provenance = %q, want %q", p, stats.ProvCold)
	}
	gc, wc := *got, *want
	gc.Meta, wc.Meta = nil, nil
	if !reflect.DeepEqual(gc, wc) {
		t.Errorf("Replay+FastForward differs from FastForward alone:\n got %+v\nwant %+v", gc, wc)
	}
}

// TestRunnerReplayTraceDir persists the recording and requires a second
// runner (a fresh process in miniature) to replay every point, including
// the one that recorded.
func TestRunnerReplayTraceDir(t *testing.T) {
	dir := t.TempDir()
	a := replayRunner()
	a.TraceDir = dir
	if _, err := a.RunE(config.Baseline(), "compress"); err != nil {
		t.Fatal(err)
	}

	b := replayRunner()
	b.TraceDir = dir
	run, err := b.RunE(config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	if p := provenanceOf(t, run); p != stats.ProvReplay {
		t.Errorf("persisted-trace provenance = %q, want %q", p, stats.ProvReplay)
	}

	// A runner with different budgets must not accept the persisted
	// stream (content-addressed name depends on the total budget).
	c := NewRunner(5_000, 50_000)
	c.Workers = 1
	c.Replay = true
	c.TraceDir = dir
	run, err = c.RunE(config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	if p := provenanceOf(t, run); p != stats.ProvCold {
		t.Errorf("budget-mismatch provenance = %q, want %q", p, stats.ProvCold)
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
