package experiments

import (
	"testing"

	"tracecache/internal/config"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
	"tracecache/internal/workload"
)

// TestRunnerFastForwardProvenance: runs under a fast-forwarding runner are
// restored from the shared checkpoint and say so in their metadata.
func TestRunnerFastForwardProvenance(t *testing.T) {
	r := NewRunner(5_000, 20_000)
	r.FastForward = 50_000
	r.Workers = 1
	for _, cfg := range []sim.Config{config.Baseline(), config.Best()} {
		run, err := r.RunE(cfg, "gcc")
		if err != nil {
			t.Fatal(err)
		}
		if run.Meta == nil || run.Meta.FastForwardInsts != 50_000 || !run.Meta.CheckpointShared {
			t.Fatalf("%s: meta = %+v, want checkpoint-shared ffwd 50000", cfg.Name, run.Meta)
		}
	}
}

// TestRunnerFastForwardMatchesDirectSimulation: the runner's
// checkpoint-restored result carries the same statistics as restoring
// the same shared checkpoint into a simulator by hand, so the runner's
// fork adds nothing of its own. It is not the result of sim.Simulate
// with FastForwardInsts: a restored checkpoint leaves microarchitectural
// state cold, while an in-simulator fast-forward warms it.
func TestRunnerFastForwardMatchesDirectSimulation(t *testing.T) {
	const ffwd, warm, meas = 50_000, 5_000, 20_000
	r := NewRunner(warm, meas)
	r.FastForward = ffwd
	r.Workers = 1
	got, err := r.RunE(config.Baseline(), "gcc")
	if err != nil {
		t.Fatal(err)
	}

	prog, err := workload.SharedProgram("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Baseline()
	cfg.FastForwardInsts, cfg.WarmupInsts, cfg.MaxInsts = ffwd, warm, meas
	s, err := sim.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := workload.SharedCheckpoint("gcc", ffwd)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	want := s.Run()

	gc, wc := *got, *want
	gc.Meta, wc.Meta = nil, nil // wall time and hostname legitimately differ
	if gc.Retired != wc.Retired || gc.Cycles != wc.Cycles ||
		gc.CondBranches != wc.CondBranches || gc.CondMispredicts != wc.CondMispredicts {
		t.Fatalf("runner run differs from direct simulation:\n got %+v\nwant %+v", gc, wc)
	}
}

// TestRunnerFastForwardParallelDeterminism: checkpoint sharing across a
// parallel sweep yields bit-identical statistics to sequential execution.
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
