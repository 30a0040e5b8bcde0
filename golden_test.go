package tracecache_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tracecache"
	"tracecache/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden summary fixtures")

// Golden run modes: a fully detailed simulation, a detailed simulation
// after a functional fast-forward prefix, a front-end replay of a stream
// recorded under the baseline, and a sampled estimate.
const (
	goldenDetailed    = "detailed"
	goldenFastForward = "ffwd"
	goldenReplay      = "replay"
	goldenSampled     = "sampled"
)

// goldenRuns pins the full output of the paper's two headline machines on
// one benchmark at a fixed small budget, in each fidelity mode whose
// numbers the simulator computes itself. Any change to a simulated
// statistic — fetch, prediction, promotion, packing, execution timing,
// replay's retire-time front-end update, the structures fast-forward
// warms, the sampling schedule — shows up
// as a diff against these fixtures; provenance metadata (wall time,
// hostname) is stripped because it legitimately varies.
var goldenRuns = []struct {
	mode   string
	config string
	bench  string
}{
	{goldenDetailed, "baseline", "gcc"},
	{goldenDetailed, "promo-pack-costreg", "gcc"},
	// icache warms the hybrid predictor in fast-forward; promo-pack-costreg
	// warms the multiple-branch predictor's pseudo fetch group, the bias
	// table and packing.
	{goldenFastForward, "icache", "gcc"},
	{goldenFastForward, "promo-pack-costreg", "gcc"},
	{goldenReplay, "baseline", "gcc"},
	{goldenReplay, "promo-pack-costreg", "gcc"},
	{goldenSampled, "baseline", "gcc"},
	{goldenSampled, "promo-pack-costreg", "gcc"},
}

func TestGoldenSummaries(t *testing.T) {
	for _, g := range goldenRuns {
		name := g.config
		if g.mode != goldenDetailed {
			name = g.mode + "-" + g.config
		}
		t.Run(name, func(t *testing.T) {
			cfg, ok := tracecache.ConfigByName(g.config)
			if !ok {
				t.Fatalf("unknown config %q", g.config)
			}
			prog, err := tracecache.BenchmarkProgram(g.bench)
			if err != nil {
				t.Fatal(err)
			}
			var got []byte
			switch g.mode {
			case goldenDetailed:
				cfg.WarmupInsts, cfg.MaxInsts = 40_000, 80_000
				got = goldenDetailedJSON(t, cfg, prog)
			case goldenFastForward:
				cfg.FastForwardInsts, cfg.WarmupInsts, cfg.MaxInsts = 100_000, 20_000, 40_000
				got = goldenDetailedJSON(t, cfg, prog)
			case goldenReplay:
				cfg.WarmupInsts, cfg.MaxInsts = 40_000, 80_000
				got = goldenReplayJSON(t, cfg, prog)
			case goldenSampled:
				cfg.MaxInsts = 200_000
				cfg.Sampling = tracecache.SamplingParams{
					WindowInsts: 1000, PeriodInsts: 20_000, WarmupInsts: 1000, Seed: 1,
				}
				got = goldenSampledJSON(t, cfg, prog)
			}
			path := filepath.Join("testdata", name+"_"+g.bench+".json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run 'go test -run TestGoldenSummaries -update' to create)", err)
			}
			if string(got) != string(want) {
				t.Errorf("summary differs from %s:\n got: %s\nwant: %s\n(if the change is intended, regenerate with -update)",
					path, got, want)
			}
		})
	}
}

// goldenDetailedJSON simulates cfg (fully detailed past any fast-forward
// prefix) and renders its summary.
func goldenDetailedJSON(t *testing.T, cfg tracecache.Config, prog *tracecache.Program) []byte {
	t.Helper()
	run, err := tracecache.Simulate(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return summaryJSON(t, run)
}

// goldenReplayJSON records the program's retired stream under the
// baseline at cfg's budgets and replays it under cfg.
func goldenReplayJSON(t *testing.T, cfg tracecache.Config, prog *tracecache.Program) []byte {
	t.Helper()
	recCfg := tracecache.BaselineConfig()
	recCfg.WarmupInsts, recCfg.MaxInsts = cfg.WarmupInsts, cfg.MaxInsts
	s, err := tracecache.NewSimulator(recCfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, s.TraceHeader("golden"))
	if err != nil {
		t.Fatal(err)
	}
	s.AttachRecorder(w)
	s.Run()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	h, recs, err := trace.ReadAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rp, err := tracecache.NewReplayer(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	run, err := rp.ReplayRecords(h, recs)
	if err != nil {
		t.Fatal(err)
	}
	return summaryJSON(t, run)
}

// goldenSampledJSON estimates cfg by sampling and renders the aggregate.
func goldenSampledJSON(t *testing.T, cfg tracecache.Config, prog *tracecache.Program) []byte {
	t.Helper()
	sm, err := tracecache.SimulateSampled(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	sm.Meta = nil
	got, err := sm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// summaryJSON renders a run's summary without its provenance metadata.
func summaryJSON(t *testing.T, run *tracecache.Run) []byte {
	t.Helper()
	run.Meta = nil
	got, err := run.Summary().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return got
}
