package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"tracecache/internal/check"
	"tracecache/internal/core"
	"tracecache/internal/program"
	"tracecache/internal/stats"
	"tracecache/internal/trace"
	"tracecache/internal/workload"
)

// recordDetailed runs a detailed simulation with the recording tap
// attached and returns the encoded stream plus the detailed statistics.
func recordDetailed(t testing.TB, cfg Config, p *program.Program) ([]byte, *stats.Run, *Simulator) {
	t.Helper()
	s, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, s.TraceHeader("commit-tap"))
	if err != nil {
		t.Fatal(err)
	}
	s.AttachRecorder(w)
	run := s.Run()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), run, s
}

// replayStream replays an encoded stream under cfg.
func replayStream(t testing.TB, cfg Config, p *program.Program, data []byte) (*stats.Run, *Replayer) {
	t.Helper()
	rd, err := trace.NewReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplayer(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	run, err := r.Replay(rd)
	if err != nil {
		t.Fatal(err)
	}
	return run, r
}

// replayConfigs mirrors the named front-end configurations of
// internal/config (which cannot be imported here without a cycle).
func replayConfigs() []Config {
	base := DefaultConfig()
	promo := DefaultConfig()
	promo.Name = "promo-t64"
	promo.Fill = core.DefaultFillConfig(core.PackAtomic, 64)
	promo.SplitMBP = true
	pack := DefaultConfig()
	pack.Name = "packing"
	pack.Fill = core.DefaultFillConfig(core.PackUnregulated, 0)
	best := DefaultConfig()
	best.Name = "promo-pack-costreg"
	best.Fill = core.DefaultFillConfig(core.PackCostRegulated, 64)
	best.SplitMBP = true
	hybrid8 := DefaultConfig()
	hybrid8.Name = "8wide-promo-hybrid"
	hybrid8.FetchWidth = 8
	hybrid8.Fill = core.DefaultFillConfig(core.PackAtomic, 64)
	hybrid8.Fill.MaxInsts = 8
	hybrid8.SingleHybrid = true
	return []Config{base, promo, pack, best, hybrid8, ICacheConfig()}
}

func replayStatsOf(run *stats.Run, tc *core.TraceCache) check.ReplayStats {
	rs := check.ReplayStats{Run: run}
	if tc != nil {
		st := tc.Stats()
		rs.TCLookups, rs.TCHits = st.Lookups, st.Hits
	}
	return rs
}

// TestReplayFidelity records one stream per benchmark and replays it
// under every standard front-end configuration, requiring the replayed
// statistics to tie out with the detailed run under the committed
// fidelity envelope (check.CompareReplay).
func TestReplayFidelity(t *testing.T) {
	for _, bench := range []string{"gcc", "compress"} {
		prof, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("missing workload %s", bench)
		}
		prog := prof.MustGenerate()
		for _, cfg := range replayConfigs() {
			cfg := cfg
			t.Run(fmt.Sprintf("%s/%s", bench, cfg.Name), func(t *testing.T) {
				cfg.WarmupInsts = 20_000
				cfg.MaxInsts = 60_000
				data, det, ds := recordDetailed(t, cfg, prog)
				rep, rr := replayStream(t, cfg, prog, data)
				t.Logf("eff-fetch-rate delta %+.2f%% (detailed %.2f, replay %.2f), mispredict-rate delta %+.2fpp (detailed %.2f%%, replay %.2f%%)",
					100*(rep.EffFetchRate()-det.EffFetchRate())/det.EffFetchRate(), det.EffFetchRate(), rep.EffFetchRate(),
					100*(rep.CondMispredictRate()-det.CondMispredictRate()),
					100*det.CondMispredictRate(), 100*rep.CondMispredictRate())
				vs := check.CompareReplay(replayStatsOf(det, ds.tc), replayStatsOf(rep, rr.TraceCache()),
					check.DefaultReplayTolerance())
				for _, v := range vs {
					t.Errorf("%s", v)
				}
			})
		}
	}
}

// TestReplayCrossConfig replays a stream recorded under one configuration
// through a different front end (the one-recording-many-replays
// workflow): the stream is config-independent, so replay must accept it
// and still tie out against that front end's own detailed run.
func TestReplayCrossConfig(t *testing.T) {
	prof, _ := workload.ByName("go")
	prog := prof.MustGenerate()
	recCfg := DefaultConfig()
	recCfg.WarmupInsts = 20_000
	recCfg.MaxInsts = 60_000
	data, _, _ := recordDetailed(t, recCfg, prog)
	for _, cfg := range replayConfigs()[1:] { // skip the recording config itself
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			cfg.WarmupInsts = recCfg.WarmupInsts
			cfg.MaxInsts = recCfg.MaxInsts
			rep, rr := replayStream(t, cfg, prog, data)
			_, det, ds := recordDetailed(t, cfg, prog)
			vs := check.CompareReplay(replayStatsOf(det, ds.tc), replayStatsOf(rep, rr.TraceCache()),
				check.DefaultReplayTolerance())
			for _, v := range vs {
				t.Errorf("%s", v)
			}
		})
	}
}

// TestReplayDeterminism requires two replays of the same stream to be
// byte-identical after stripping wall-clock provenance.
func TestReplayDeterminism(t *testing.T) {
	prof, _ := workload.ByName("compress")
	prog := prof.MustGenerate()
	cfg := DefaultConfig()
	cfg.WarmupInsts = 10_000
	cfg.MaxInsts = 30_000
	data, _, _ := recordDetailed(t, cfg, prog)
	marshal := func() []byte {
		run, _ := replayStream(t, cfg, prog, data)
		run.Meta = nil
		b, err := json.Marshal(run)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := marshal(), marshal()
	if !bytes.Equal(a, b) {
		t.Fatalf("replays differ:\n%s\n%s", a, b)
	}
}

// TestRecordTapFastForwardEquivalence requires the functional
// fast-forward tap and the detailed commit tap to record the same
// committed path: the decoded records of a run with a fast-forward
// prefix must prefix-match an all-detailed run of the same program.
func TestRecordTapFastForwardEquivalence(t *testing.T) {
	prof, _ := workload.ByName("compress")
	prog := prof.MustGenerate()
	det := DefaultConfig()
	det.WarmupInsts = 10_000
	det.MaxInsts = 40_000
	ff := det
	ff.FastForwardInsts = 20_000
	ff.WarmupInsts = 10_000
	ff.MaxInsts = 20_000 // same 50k committed total

	dData, _, _ := recordDetailed(t, det, prog)
	fData, _, _ := recordDetailed(t, ff, prog)
	_, dRecs, err := trace.ReadAll(dData)
	if err != nil {
		t.Fatal(err)
	}
	_, fRecs, err := trace.ReadAll(fData)
	if err != nil {
		t.Fatal(err)
	}
	n := len(dRecs)
	if len(fRecs) < n {
		n = len(fRecs)
	}
	if n < 50_000 {
		t.Fatalf("short streams: detailed %d, fast-forward %d", len(dRecs), len(fRecs))
	}
	for i := 0; i < n; i++ {
		if dRecs[i] != fRecs[i] {
			t.Fatalf("record %d: detailed %+v, fast-forward %+v", i, dRecs[i], fRecs[i])
		}
	}
}

// TestReplayHaltingProgram replays a program that halts before the
// budget: the replay must stop cleanly at the halt.
func TestReplayHaltingProgram(t *testing.T) {
	prog := sumLoop(t, 100)
	cfg := DefaultConfig()
	cfg.MaxInsts = 1 << 20
	data, det, _ := recordDetailed(t, cfg, prog)
	rep, _ := replayStream(t, cfg, prog, data)
	if rep.Retired != det.Retired {
		t.Fatalf("retired: detailed %d, replayed %d", det.Retired, rep.Retired)
	}
}

// TestReplayRejectsMismatchedStream covers the eligibility guards: a
// stream from another program and a stream too short for the budget are
// both refused before any replay work.
func TestReplayRejectsMismatchedStream(t *testing.T) {
	prof, _ := workload.ByName("compress")
	prog := prof.MustGenerate()
	cfg := DefaultConfig()
	cfg.WarmupInsts = 5_000
	cfg.MaxInsts = 10_000
	data, _, _ := recordDetailed(t, cfg, prog)

	otherProf, _ := workload.ByName("gcc")
	other := otherProf.MustGenerate()
	r, err := NewReplayer(cfg, other)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(rd); !errors.Is(err, trace.ErrMismatch) {
		t.Fatalf("wrong-program replay error = %v, want ErrMismatch", err)
	}

	big := cfg
	big.MaxInsts = 1 << 20
	r2, err := NewReplayer(big, prog)
	if err != nil {
		t.Fatal(err)
	}
	rd2, err := trace.NewReaderBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Replay(rd2); !errors.Is(err, trace.ErrMismatch) {
		t.Fatalf("short-stream replay error = %v, want ErrMismatch", err)
	}
}
