package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

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
	h, recs, err := trace.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplayer(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	run, err := r.ReplayRecords(h, recs)
	if err != nil {
		t.Fatal(err)
	}
	return run, r
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
// committed path: RecordStream's records under a fast-forward prefix
// must prefix-match an all-detailed recording of the same program, and
// the stream must carry exactly the budget plus the two-bundle tail that
// lets every replay measure its full MaxInsts.
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
	_, dRecs, err := trace.ReadAll(dData)
	if err != nil {
		t.Fatal(err)
	}
	_, fRecs, err := RecordStream(ff, prog)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := uint64(len(fRecs)), ff.FastForwardInsts+ff.WarmupInsts+ff.MaxInsts+2*stats.MaxFetchWidth; got != want {
		t.Fatalf("functional stream has %d records, want %d", got, want)
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
	h, recs, err := trace.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReplayRecords(h, recs); !errors.Is(err, trace.ErrMismatch) {
		t.Fatalf("wrong-program replay error = %v, want ErrMismatch", err)
	}

	big := cfg
	big.MaxInsts = 1 << 20
	r2, err := NewReplayer(big, prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.ReplayRecords(h, recs); !errors.Is(err, trace.ErrMismatch) {
		t.Fatalf("short-stream replay error = %v, want ErrMismatch", err)
	}
}
