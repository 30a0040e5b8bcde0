package sim

import (
	"testing"

	"tracecache/internal/program"
	"tracecache/internal/trace"
	"tracecache/internal/workload"
)

func ffwdProg(t *testing.T, name string) *program.Program {
	t.Helper()
	p, err := workload.SharedProgram(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// retireStream runs the simulator with the recording tap attached and
// returns the committed stream in commit order: the functional prefix,
// then every detailed retirement.
func retireStream(t *testing.T, cfg Config, p *program.Program) []trace.Rec {
	t.Helper()
	data, _, _ := recordDetailed(t, cfg, p)
	_, recs, err := trace.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// assertFastForwardDeterminism checks the central fast-forward contract:
// fast-forwarding N instructions and then retiring M in detail commits
// the same stream as a fully detailed run's first N+M instructions.
// (Fast-forward may only relocate the detailed phase, never change what
// commits — in the functional prefix or after it.)
func assertFastForwardDeterminism(t *testing.T, cfg Config, bench string) {
	t.Helper()
	const n, m = 30_000, 30_000
	p := ffwdProg(t, bench)

	full := cfg
	full.WarmupInsts, full.MaxInsts = 0, n+m
	detailed := retireStream(t, full, p)
	if uint64(len(detailed)) < n+m {
		t.Fatalf("detailed run retired %d, want >= %d", len(detailed), n+m)
	}

	ff := cfg
	ff.FastForwardInsts, ff.WarmupInsts, ff.MaxInsts = n, 0, m
	ffStream := retireStream(t, ff, p)
	if uint64(len(ffStream)) < n+m {
		t.Fatalf("ffwd run committed %d, want >= %d", len(ffStream), n+m)
	}

	k := min(len(detailed), len(ffStream))
	for i := 0; i < k; i++ {
		if detailed[i] != ffStream[i] {
			t.Fatalf("committed stream diverged at instruction %d (prefix %d): detailed %+v, ffwd %+v",
				i, n, detailed[i], ffStream[i])
		}
	}
}

func TestFastForwardDeterminismTrace(t *testing.T) {
	assertFastForwardDeterminism(t, DefaultConfig(), "gcc")
}

func TestFastForwardDeterminismICache(t *testing.T) {
	assertFastForwardDeterminism(t, ICacheConfig(), "compress")
}

// TestFastForwardPastHalt: a fast-forward window larger than the program
// stops at the halt without consuming it, so the detailed phase retires
// the halt exactly once.
func TestFastForwardPastHalt(t *testing.T) {
	p := sumLoop(t, 100) // 303 committed instructions including the halt
	cfg := DefaultConfig()
	cfg.FastForwardInsts = 10_000
	s := mustSim(t, cfg, p)
	r := s.Run()
	if s.FastForwarded() != 302 {
		t.Errorf("FastForwarded = %d, want 302 (halt left to the detailed phase)", s.FastForwarded())
	}
	if r.Retired != 1 {
		t.Errorf("retired = %d, want 1 (just the halt)", r.Retired)
	}
}

// TestFastForwardRunsWithEmptyUndoLog: the committed path never rolls
// back, so fast-forward must not accumulate undo history.
func TestFastForwardRunsWithEmptyUndoLog(t *testing.T) {
	p := ffwdProg(t, "compress")
	cfg := DefaultConfig()
	cfg.FastForwardInsts, cfg.MaxInsts = 50_000, 1
	s := mustSim(t, cfg, p)
	s.fastForward(cfg.FastForwardInsts)
	if n := s.state.UndoLen(); n != 0 {
		t.Errorf("undo length after fast-forward = %d, want 0", n)
	}
}

// TestFastForwardAccuracy bounds the approximation error of warming the
// fetch-time predictors from the committed stream: replacing two thirds of
// a detailed warmup with fast-forward must measure the identical committed
// region and keep IPC and misprediction rate close to the all-detailed
// run. The bounds are loose (the runs are deterministic; these catch
// regressions in the warming model, not noise).
func TestFastForwardAccuracy(t *testing.T) {
	p := ffwdProg(t, "gcc")
	const prefix, keepWarm, measured = 100_000, 50_000, 60_000

	det := DefaultConfig()
	det.WarmupInsts, det.MaxInsts = prefix+keepWarm, measured
	sd := mustSim(t, det, p)
	rd := sd.Run()

	ff := DefaultConfig()
	ff.FastForwardInsts, ff.WarmupInsts, ff.MaxInsts = prefix, keepWarm, measured
	sf := mustSim(t, ff, p)
	rf := sf.Run()

	if rd.Retired != rf.Retired || rd.CondBranches != rf.CondBranches {
		t.Fatalf("measured regions differ: retired %d/%d, branches %d/%d",
			rd.Retired, rf.Retired, rd.CondBranches, rf.CondBranches)
	}
	t.Logf("IPC delta %+.2f%% (detailed %.3f, ffwd %.3f)",
		100*(rf.IPC()-rd.IPC())/rd.IPC(), rd.IPC(), rf.IPC())
	t.Logf("eff-fetch-rate delta %+.2f%% (detailed %.2f, ffwd %.2f)",
		100*(rf.EffFetchRate()-rd.EffFetchRate())/rd.EffFetchRate(), rd.EffFetchRate(), rf.EffFetchRate())
	t.Logf("mispredict-rate delta %+.2fpp (detailed %.2f%%, ffwd %.2f%%)",
		100*(rf.CondMispredictRate()-rd.CondMispredictRate()), 100*rd.CondMispredictRate(), 100*rf.CondMispredictRate())
	if d := relDelta(rf.IPC(), rd.IPC()); d > 0.10 {
		t.Errorf("IPC delta %.1f%% (detailed %.3f, ffwd %.3f), want <= 10%%", 100*d, rd.IPC(), rf.IPC())
	}
	if d := rf.CondMispredictRate() - rd.CondMispredictRate(); d > 0.03 || d < -0.03 {
		t.Errorf("mispredict-rate delta %.2fpp (detailed %.2f%%, ffwd %.2f%%), want within 3pp",
			100*d, 100*rd.CondMispredictRate(), 100*rf.CondMispredictRate())
	}
}

func relDelta(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b == 0 {
		return 0
	}
	return d / b
}
