package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"tracecache/internal/config"
	"tracecache/internal/stats"
)

// parallelBudgetRunner uses very small budgets: these tests exercise the
// scheduler, not the statistics.
func parallelBudgetRunner(workers int) *Runner {
	r := NewRunner(1_000, 3_000)
	r.Workers = workers
	return r
}

// parallelTestExperiments picks a cross-section of experiments whose
// configurations overlap heavily (shared baseline sweeps), so the
// parallel run exercises singleflight dedup, not just fan-out.
func parallelTestExperiments(t *testing.T) []Experiment {
	t.Helper()
	out := make([]Experiment, 0, 3)
	for _, id := range []string{"fig4", "table2", "fig9"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		out = append(out, e)
	}
	return out
}

func renderAll(t *testing.T, workers int) string {
	t.Helper()
	var sb strings.Builder
	err := RunAll(parallelBudgetRunner(workers), parallelTestExperiments(t),
		func(e Experiment, out string) {
			fmt.Fprintf(&sb, "== %s ==\n%s\n", e.ID, out)
		})
	if err != nil {
		t.Fatalf("RunAll(j=%d): %v", workers, err)
	}
	return sb.String()
}

// TestParallelDeterminism asserts the acceptance criterion that a parallel
// run renders byte-identical experiment output to a sequential one.
func TestParallelDeterminism(t *testing.T) {
	seq := renderAll(t, 1)
	par := renderAll(t, 8)
	if seq != par {
		t.Fatalf("parallel output differs from sequential:\n--- j=1 ---\n%s\n--- j=8 ---\n%s", seq, par)
	}
}

// TestSingleflightStress hammers one Runner from many goroutines with
// overlapping configuration×benchmark keys (run under -race in CI) and
// checks every key was simulated exactly once (one cold RunDone each)
// and all callers share the memoized result.
func TestSingleflightStress(t *testing.T) {
	r := parallelBudgetRunner(8)
	log := &eventLog{}
	r.OnRun = log.listen

	cfgs := []string{"baseline", "icache"}
	benches := []string{"compress", "go", "li"}
	const goroutines = 24

	got := make([][]*stats.Run, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runs := make([]*stats.Run, 0, len(cfgs)*len(benches))
			for _, cn := range cfgs {
				cfg, _ := config.ByName(cn)
				for _, b := range benches {
					run, err := r.RunE(cfg, b)
					if err != nil {
						t.Errorf("RunE(%s/%s): %v", cn, b, err)
						return
					}
					runs = append(runs, run)
				}
			}
			got[g] = runs
		}(g)
	}
	wg.Wait()

	cold := 0
	for _, ev := range log.byPhase(RunDone) {
		if ev.Provenance == stats.ProvCold {
			cold++
		}
	}
	if want := len(cfgs) * len(benches); cold != want {
		t.Errorf("simulations = %d, want %d (singleflight dedup failed)", cold, want)
	}
	if keys := r.CachedKeys(); len(keys) != len(cfgs)*len(benches) {
		t.Errorf("cached keys = %v", keys)
	}
	for g := 1; g < goroutines; g++ {
		if got[g] == nil {
			continue // that goroutine already reported an error
		}
		for i := range got[g] {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d result %d not shared with goroutine 0", g, i)
			}
		}
	}
}

// TestRunEError checks an invalid configuration surfaces as an error (not a
// process-killing panic), is memoized, and leaves the runner usable.
func TestRunEError(t *testing.T) {
	r := parallelBudgetRunner(4)
	bad := config.Baseline()
	bad.Name = "bad-engine"
	bad.Engine.FUs = 0
	if _, err := r.RunE(bad, "compress"); err == nil {
		t.Fatal("RunE accepted an invalid config")
	}
	// The failure is memoized under its key and returned again.
	if _, err := r.RunE(bad, "compress"); err == nil {
		t.Fatal("memoized failure lost")
	}
	if _, err := r.RunE(bad, "no-such-benchmark"); err == nil {
		t.Fatal("RunE accepted an unknown benchmark")
	}
	// A good run on the same runner still works.
	if _, err := r.RunE(config.Baseline(), "compress"); err != nil {
		t.Fatalf("runner unusable after error: %v", err)
	}
}

// TestSweepEPropagatesError checks a failing config fails the sweep cleanly
// in both the sequential and parallel paths.
func TestSweepEPropagatesError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		r := parallelBudgetRunner(workers)
		bad := config.Baseline()
		bad.Name = "bad-width"
		bad.IssueWidth = -1
		runs, err := r.SweepE(bad)
		if err == nil || runs != nil {
			t.Fatalf("j=%d: SweepE(bad) = %v, %v; want nil, error", workers, runs, err)
		}
	}
}

// TestRunAllStopsAtFailure checks RunAll emits experiments preceding the
// first failure, in order, and reports the failure as an error.
func TestRunAllStopsAtFailure(t *testing.T) {
	good, ok := ByID("fig9")
	if !ok {
		t.Fatal("missing fig9")
	}
	boom := Experiment{ID: "boom", Title: "always fails", Paper: "none",
		Run: func(r *Runner) (string, error) { panic("kaboom") }}
	for _, workers := range []int{1, 8} {
		r := parallelBudgetRunner(workers)
		var emitted []string
		err := RunAll(r, []Experiment{good, boom, good},
			func(e Experiment, out string) { emitted = append(emitted, e.ID) })
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("j=%d: err = %v, want kaboom", workers, err)
		}
		if len(emitted) != 1 || emitted[0] != "fig9" {
			t.Fatalf("j=%d: emitted = %v, want [fig9]", workers, emitted)
		}
	}
}

// TestParallelSweepMatchesSequential compares the run pointers and values
// of a parallel sweep against a fresh sequential runner: same order, and
// bit-identical simulated statistics.
func TestParallelSweepMatchesSequential(t *testing.T) {
	cfg := config.Baseline()
	seq, err := parallelBudgetRunner(1).SweepE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := parallelBudgetRunner(8).SweepE(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, b := *seq[i], *par[i]
		// Run provenance (wall time, timestamps) legitimately differs;
		// every simulated statistic must not.
		a.Meta, b.Meta = nil, nil
		if a != b {
			t.Errorf("run %d (%s) differs between sequential and parallel", i, seq[i].Benchmark)
		}
	}
}
