package experiments

import (
	"reflect"
	"testing"

	"tracecache/internal/config"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
	"tracecache/internal/workload"
)

// TestRunnerFastForwardProvenance: runs under a fast-forwarding runner
// are cold starts that executed their own prefix, and say so in their
// metadata.
func TestRunnerFastForwardProvenance(t *testing.T) {
	r := NewRunner(5_000, 20_000)
	r.FastForward = 50_000
	r.Workers = 1
	for _, cfg := range []sim.Config{config.Baseline(), config.Best()} {
		run, err := r.RunE(cfg, "gcc")
		if err != nil {
			t.Fatal(err)
		}
		if run.Meta == nil || run.Meta.Provenance != stats.ProvCold || run.Meta.FastForwardInsts != 50_000 {
			t.Fatalf("%s: meta = %+v, want cold provenance with ffwd 50000", cfg.Name, run.Meta)
		}
	}
}

// TestRunnerFastForwardMatchesDirectSimulation: a fast-forwarding runner
// adds nothing of its own. Each point's simulator executes and warms its
// own prefix, so RunE returns exactly what sim.New + Run returns for the
// same configuration (what tcsim -ffwd prints).
func TestRunnerFastForwardMatchesDirectSimulation(t *testing.T) {
	const ffwd, warm, meas = 50_000, 5_000, 20_000
	prog, err := workload.SharedProgram("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []sim.Config{config.Baseline(), config.Best()} {
		t.Run(base.Name, func(t *testing.T) {
			r := NewRunner(warm, meas)
			r.FastForward = ffwd
			r.Workers = 1
			got, err := r.RunE(base, "gcc")
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.FastForwardInsts, cfg.WarmupInsts, cfg.MaxInsts = ffwd, warm, meas
			s, err := sim.New(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			gc, wc := *got, *s.Run()
			gc.Meta, wc.Meta = nil, nil // wall time and hostname legitimately differ
			if !reflect.DeepEqual(gc, wc) {
				t.Errorf("RunE differs from direct simulation:\n got %+v\nwant %+v", gc, wc)
			}
		})
	}
}

// TestRunnerFastForwardParallelDeterminism: a fast-forwarding parallel
// sweep yields bit-identical statistics to sequential execution.
func TestRunnerFastForwardParallelDeterminism(t *testing.T) {
	sweep := func(workers int) []*stats.Run {
		r := NewRunner(5_000, 15_000)
		r.FastForward = 30_000
		r.Workers = workers
		runs, err := r.SweepE(config.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	seq := sweep(1)
	par := sweep(4)
	if len(seq) != len(par) {
		t.Fatalf("sweep lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, b := *seq[i], *par[i]
		a.Meta, b.Meta = nil, nil
		if a.Retired != b.Retired || a.Cycles != b.Cycles ||
			a.CondMispredicts != b.CondMispredicts || a.TCMissCycles != b.TCMissCycles {
			t.Errorf("%s: parallel sweep diverged from sequential", seq[i].Benchmark)
		}
	}
}
