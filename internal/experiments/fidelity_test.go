package experiments_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"tracecache/internal/check"
	"tracecache/internal/config"
	"tracecache/internal/core"
	"tracecache/internal/experiments"
	"tracecache/internal/program"
	"tracecache/internal/resultstore"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
	"tracecache/internal/trace"
	"tracecache/internal/workload"
)

// The fidelity modes a row holds to truth.
const (
	modeReplay      = "replay"  // front-end replay of a sim.RecordStream stream (DESIGN.md §9)
	modeFastForward = "ffwd"    // a functional prefix in place of detailed warm-up (README "Fast-forward")
	modeSampled     = "sampled" // SMARTS-style sampling (DESIGN.md §10)
)

// Fast-forward's contract: the measured region is the one truth
// measures, IPC is within 10% of truth and the conditional mispredict
// rate within 3pp.
const (
	ffwdIPCRel    = 0.10
	ffwdMispredPP = 0.03
)

// sampledSchedule is the sampled rows' schedule: 10 windows of 1k
// instructions, each behind 1k of detailed warm-up, at 20k periods over a
// 200k extent.
var sampledSchedule = sim.SamplingParams{WindowInsts: 1000, PeriodInsts: 20_000, WarmupInsts: 1000, Seed: 1}

// fidelityRow is one point of one mode, with the mode's budgets: a
// fast-forward prefix, a detailed warm-up and the measured (for sampled
// rows, the total) instructions.
type fidelityRow struct {
	mode                string
	bench               string
	cfg                 sim.Config
	ffwd, warmup, insts uint64
}

func (r fidelityRow) name() string {
	mode := r.mode
	if r.mode == modeReplay && r.ffwd > 0 {
		mode = fmt.Sprintf("replay-ffwd%dk", r.ffwd/1000)
	}
	return mode + "/" + r.bench + "/" + r.cfg.Name
}

// knownBreaks are the rows that break their contract today, each with
// the rules it breaks and, for each rule, the ROADMAP item whose fix is
// expected to flip it. Such a row must fail exactly those rules.
var knownBreaks = map[string]map[string]int{
	// Replay's front end runs ahead of the detailed machine's on compress
	// after a longer warm-up (ROADMAP item 4).
	"replay-ffwd20k/compress/promo-t64":           {"replay/eff-fetch-rate": 4},
	"replay-ffwd100k/compress/promo-t64":          {"replay/promoted-executed": 4},
	"replay-ffwd100k/compress/promo-pack-costreg": {"replay/promoted-executed": 4},
	"replay-ffwd100k/compress/8wide-promo-hybrid": {"replay/promoted-executed": 4},
	// fastForward's predictor warming inflates the mispredict rate
	// (ROADMAP item 2). On tex the warmed machine's timing also moves the
	// end of the detailed warm-up by one instruction: truth measures
	// 60,001 and the fast-forwarded run 60,000.
	"ffwd/gnuchess/baseline":      {"ffwd/cond-mispredict-rate": 2},
	"ffwd/tex/promo-pack-costreg": {"ffwd/cond-mispredict-rate": 2, "ffwd/measured-region": 2},
}

// fidelityRows lists every row: replay of gcc, compress and go under the
// six standard front ends at 20k+60k, and of gcc and compress through a
// 20k and a 100k fast-forward prefix; fast-forward at 100k+50k+60k; and
// sampling at the 200k schedule.
func fidelityRows() []fidelityRow {
	frontEnds := []sim.Config{config.Baseline(), config.Promotion(config.PromotionThreshold), config.Packing(),
		config.Best(), config.EightWidePromotionHybrid(), config.ICache()}
	var rows []fidelityRow
	replay := func(ffwd uint64, benches ...string) {
		for _, bench := range benches {
			for _, cfg := range frontEnds {
				rows = append(rows, fidelityRow{modeReplay, bench, cfg, ffwd, 20_000, 60_000})
			}
		}
	}
	replay(0, "gcc", "compress", "go")
	replay(20_000, "gcc", "compress")
	replay(100_000, "gcc", "compress")
	return append(rows,
		fidelityRow{modeFastForward, "gcc", config.Baseline(), 100_000, 50_000, 60_000},
		fidelityRow{modeFastForward, "gnuchess", config.Baseline(), 100_000, 50_000, 60_000},
		fidelityRow{modeFastForward, "tex", config.Best(), 100_000, 50_000, 60_000},
		fidelityRow{modeSampled, "gcc", config.Baseline(), 0, 0, 200_000},
		fidelityRow{modeSampled, "compress", config.Baseline(), 0, 0, 200_000},
	)
}

// newRunner builds a runner that serves the row's mode at its budgets
// from store.
func newRunner(row fidelityRow, store *resultstore.Store) *experiments.Runner {
	r := experiments.NewRunner(row.warmup, row.insts)
	r.FastForward = row.ffwd
	r.Replay = row.mode == modeReplay
	if row.mode == modeSampled {
		r.Sampling = sampledSchedule
	}
	r.Store = store
	return r
}

// request asks r for the row's point in the row's mode.
func request(r *experiments.Runner, row fidelityRow) (any, error) {
	if row.mode == modeSampled {
		return r.RunSampledE(row.cfg, row.bench)
	}
	return r.RunE(row.cfg, row.bench)
}

// stream is one benchmark's committed stream for one fast-forward prefix.
type stream struct {
	hdr  trace.Header
	recs []trace.Rec
}

// TestFidelity holds every fast fidelity mode to truth, a fully detailed
// run over the same instruction extent, under the mode's contract:
//   - replay: check.CompareReplay with trace-cache counters and
//     check.DefaultReplayTolerance, inside check.InReplayDomain. Each
//     benchmark and prefix is recorded once (sim.RecordStream) and
//     replayed under every front end, and the replay must equal what a
//     replaying Runner serves for the same request, Meta aside;
//   - fast-forward: compareFastForward's bounds;
//   - sampled: check.CompareSampled with check.DefaultSampledTolerance.
//
// Every row's result comes from a Runner with a result store, and a
// second Runner on the same store must serve it verbatim: the
// store-served mode. A row in knownBreaks must fail exactly its known
// rules; the test fails if one of them holds, or if any other row breaks.
//
// A row runs as TestFidelity/<mode>/<bench>/<front end>, one subtest per
// name element, so each mode and each mode's benchmark is a test of its
// own.
func TestFidelity(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rows := fidelityRows()
	named := make(map[string]bool, len(rows))
	for _, row := range rows {
		named[row.name()] = true
	}
	for name := range knownBreaks {
		if !named[name] {
			t.Fatalf("known break %s names no row", name)
		}
	}

	// One runner per mode and budgets, shared by its rows, and one
	// recording per benchmark and prefix.
	runners := make(map[string]*experiments.Runner)
	streams := make(map[string]stream)
	var cases []nestedCase
	for _, row := range rows {
		group := fmt.Sprintf("%s/%d+%d+%d", row.mode, row.ffwd, row.warmup, row.insts)
		if runners[group] == nil {
			runners[group] = newRunner(row, store)
		}
		r := runners[group]
		var st stream
		if row.mode == modeReplay {
			if !check.InReplayDomain(row.warmup, row.insts) {
				t.Fatalf("%s: %d+%d lies outside replay's calibrated domain", row.name(), row.warmup, row.insts)
			}
			key := fmt.Sprintf("%s/%d", row.bench, row.ffwd)
			st = streams[key]
			if st.recs == nil {
				st.hdr, st.recs, err = sim.RecordStream(budgeted(config.Baseline(), row), sharedProgram(t, row.bench))
				if err != nil {
					t.Fatal(err)
				}
				streams[key] = st
			}
		}
		cases = append(cases, nestedCase{strings.Split(row.name(), "/"), func(t *testing.T) {
			got, err := request(r, row)
			if err != nil {
				t.Fatal(err)
			}
			truth := detailedTruth(t, row)
			var vs []check.Violation
			switch row.mode {
			case modeReplay:
				vs = checkReplay(t, row, got.(*stats.Run), st, truth)
			case modeFastForward:
				vs = compareFastForward(t, truth.Run, got.(*stats.Run))
			case modeSampled:
				vs = compareSampled(t, truth, got.(*stats.Sampled))
			}
			judge(t, row, vs)
			checkStoreServed(t, row, store, got)
		}})
	}
	runNested(t, cases)
}

// nestedCase is a test at a slash-separated path below the running test.
type nestedCase struct {
	path []string
	run  func(*testing.T)
}

// runNested runs each case as a parallel subtest of t, one level per
// path element, in the order the cases first name each element.
func runNested(t *testing.T, cases []nestedCase) {
	var heads []string
	below := make(map[string][]nestedCase)
	for _, c := range cases {
		if _, ok := below[c.path[0]]; !ok {
			heads = append(heads, c.path[0])
		}
		below[c.path[0]] = append(below[c.path[0]], nestedCase{c.path[1:], c.run})
	}
	for _, head := range heads {
		cs := below[head]
		t.Run(head, func(t *testing.T) {
			t.Parallel()
			if len(cs) == 1 && len(cs[0].path) == 0 {
				cs[0].run(t)
				return
			}
			runNested(t, cs)
		})
	}
}

// budgeted returns cfg at the row's budgets.
func budgeted(cfg sim.Config, row fidelityRow) sim.Config {
	cfg.FastForwardInsts, cfg.WarmupInsts, cfg.MaxInsts = row.ffwd, row.warmup, row.insts
	return cfg
}

func sharedProgram(t *testing.T, bench string) *program.Program {
	t.Helper()
	p, err := workload.SharedProgram(bench)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// withTC pairs a run with its trace cache's lookups and hits (zero for
// the icache front end, which has none).
func withTC(run *stats.Run, tc *core.TraceCache) check.ReplayStats {
	rs := check.ReplayStats{Run: run}
	if tc != nil {
		st := tc.Stats()
		rs.TCLookups, rs.TCHits = st.Lookups, st.Hits
	}
	return rs
}

// detailedTruth runs the row's configuration fully detailed over the
// row's extent: the prefix joins the warm-up.
func detailedTruth(t *testing.T, row fidelityRow) check.ReplayStats {
	t.Helper()
	cfg := row.cfg
	cfg.WarmupInsts, cfg.MaxInsts = row.ffwd+row.warmup, row.insts
	s, err := sim.New(cfg, sharedProgram(t, row.bench))
	if err != nil {
		t.Fatal(err)
	}
	return withTC(s.Run(), s.TraceCache())
}

// checkReplay replays the row's recorded stream, requires the runner's
// replay to equal it with Meta set aside, and compares it with truth.
func checkReplay(t *testing.T, row fidelityRow, served *stats.Run, st stream, truth check.ReplayStats) []check.Violation {
	t.Helper()
	rp, err := sim.NewReplayer(budgeted(row.cfg, row), sharedProgram(t, row.bench))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rp.ReplayRecords(st.hdr, st.recs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := *served, *rep
	a.Meta, b.Meta = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Runner.Replay served a different run:\nserved %+v\nreplay %+v", a, b)
	}
	d := truth.Run
	t.Logf("eff %+.2f%% (detailed %.3f, replay %.3f), mispredict %+.2fpp, promoted executed %d/%d",
		100*(rep.EffFetchRate()-d.EffFetchRate())/d.EffFetchRate(), d.EffFetchRate(), rep.EffFetchRate(),
		100*(rep.CondMispredictRate()-d.CondMispredictRate()), d.PromotedExecuted, rep.PromotedExecuted)
	return check.CompareReplay(truth, withTC(rep, rp.TraceCache()), check.DefaultReplayTolerance())
}

// compareFastForward holds a fast-forwarded run to truth under
// fast-forward's contract (ffwdIPCRel, ffwdMispredPP).
func compareFastForward(t *testing.T, truth, ff *stats.Run) []check.Violation {
	t.Helper()
	var vs []check.Violation
	add := func(rule, format string, args ...any) {
		vs = append(vs, check.Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
	ipc := math.Abs(ff.IPC()-truth.IPC()) / truth.IPC()
	mispred := ff.CondMispredictRate() - truth.CondMispredictRate()
	t.Logf("IPC %+.2f%% (detailed %.3f, ffwd %.3f), eff %+.2f%%, mispredict %+.2fpp",
		100*(ff.IPC()-truth.IPC())/truth.IPC(), truth.IPC(), ff.IPC(),
		100*(ff.EffFetchRate()-truth.EffFetchRate())/truth.EffFetchRate(), 100*mispred)
	if ff.Retired != truth.Retired || ff.CondBranches != truth.CondBranches {
		add("ffwd/measured-region", "retired detailed=%d ffwd=%d, cond branches detailed=%d ffwd=%d",
			truth.Retired, ff.Retired, truth.CondBranches, ff.CondBranches)
	}
	if ipc > ffwdIPCRel {
		add("ffwd/ipc", "detailed=%.3f ffwd=%.3f (%.1f%% > %.0f%%)", truth.IPC(), ff.IPC(), 100*ipc, 100*ffwdIPCRel)
	}
	if math.Abs(mispred) > ffwdMispredPP {
		add("ffwd/cond-mispredict-rate", "detailed=%.2f%% ffwd=%.2f%% (%.2fpp > %.0fpp)",
			100*truth.CondMispredictRate(), 100*ff.CondMispredictRate(), 100*math.Abs(mispred), 100*ffwdMispredPP)
	}
	return vs
}

// compareSampled holds a sampled estimate to truth with check.CompareSampled.
func compareSampled(t *testing.T, truth check.ReplayStats, sm *stats.Sampled) []check.Violation {
	t.Helper()
	d := truth.Run
	t.Logf("IPC %+.2f%% (detailed %.3f, sampled %.3f ±%.3f), eff %+.2f%%, mispredict %+.2fpp",
		100*(sm.IPC.Mean-d.IPC())/d.IPC(), d.IPC(), sm.IPC.Mean, sm.IPC.HalfWidth(),
		100*(sm.EffFetchRate.Mean-d.EffFetchRate())/d.EffFetchRate(),
		100*(sm.MispredictRate.Mean-d.CondMispredictRate()))
	return check.CompareSampled(check.GroundTruth(truth), sm, check.DefaultSampledTolerance())
}

// judge fails a row that breaks its contract, unless the break is one
// of the row's known ones; a known break that no longer breaks fails too.
func judge(t *testing.T, row fidelityRow, vs []check.Violation) {
	t.Helper()
	known := knownBreaks[row.name()]
	broke := make(map[string]bool)
	for _, v := range vs {
		if item, ok := known[v.Rule]; ok {
			broke[v.Rule] = true
			t.Logf("known break (ROADMAP item %d): %s: %s", item, v.Rule, v.Detail)
			continue
		}
		t.Errorf("%s: %s", v.Rule, v.Detail)
	}
	for rule, item := range known {
		if !broke[rule] {
			t.Errorf("%s holds now: the known break ROADMAP item %d is to fix is gone, so drop it from knownBreaks",
				rule, item)
		}
	}
}

// checkStoreServed requires a second runner on the same store to serve
// the row's result verbatim, Meta included.
func checkStoreServed(t *testing.T, row fidelityRow, store *resultstore.Store, want any) {
	t.Helper()
	r := newRunner(row, store)
	prov := lastProvenance(r)
	got, err := request(r, row)
	if err != nil {
		t.Fatal(err)
	}
	if prov() != stats.ProvStore {
		t.Errorf("second runner's provenance = %q, want %q", prov(), stats.ProvStore)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("store served a different result:\nserved %+v\n  want %+v", got, want)
	}
}
