package experiments

import (
	"reflect"
	"testing"

	"tracecache/internal/config"
	"tracecache/internal/sampling"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
	"tracecache/internal/workload"
)

func sampledRunner(workers int) *Runner {
	r := NewRunner(2000, 100_000)
	r.Workers = workers
	r.Sampling = sim.SamplingParams{
		WindowInsts: 1000,
		PeriodInsts: 20_000,
		WarmupInsts: 1000,
		Seed:        1,
	}
	return r
}

// TestRunSampledMemoSeparation: a sampled request and a detailed request
// of the same (config, benchmark) occupy distinct memo slots, and the
// sampled result is marked as the estimate it is — sampled provenance,
// schedule metadata, and a schedule-bearing config hash distinct from the
// detailed twin's.
func TestRunSampledMemoSeparation(t *testing.T) {
	r := sampledRunner(1)
	det, err := r.RunE(config.Baseline(), "gcc")
	if err != nil {
		t.Fatal(err)
	}
	sm, err := r.RunSampledE(config.Baseline(), "gcc")
	if err != nil {
		t.Fatal(err)
	}
	keys := r.CachedKeys()
	if len(keys) != 2 {
		t.Fatalf("memo holds %v, want one detailed and one sampled slot", keys)
	}
	if sm.Meta == nil || sm.Meta.Provenance != stats.ProvSampled || sm.Meta.Sampling == nil {
		t.Fatalf("sampled meta = %+v, want ProvSampled with schedule", sm.Meta)
	}
	if det.Meta.Provenance == stats.ProvSampled {
		t.Fatal("detailed run acquired sampled provenance")
	}
	if det.Meta.ConfigHash == sm.Meta.ConfigHash {
		t.Fatal("sampled and detailed config hashes collide: memoization/journal would conflate them")
	}

	// A second sampled request must share the slot, not re-simulate.
	sm2, err := r.RunSampledE(config.Baseline(), "gcc")
	if err != nil {
		t.Fatal(err)
	}
	if sm2 != sm {
		t.Fatal("repeated sampled request did not share the memoized aggregate")
	}

	// Same-name, different-content configs get separate slots.
	renamed := config.ICache()
	renamed.Name = "baseline"
	sm3, err := r.RunSampledE(renamed, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	if sm3 == sm || len(r.CachedKeys()) != 3 {
		t.Fatalf("an icache machine named baseline shared the baseline's sampled estimate: cached = %v", r.CachedKeys())
	}
}

// TestSweepSampledParallelDeterminism: a sampled sweep is bit-identical
// across worker counts — schedules, per-window samples, and estimates.
func TestSweepSampledParallelDeterminism(t *testing.T) {
	seq, err := sampledRunner(1).SweepSampledE(config.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	par, err := sampledRunner(4).SweepSampledE(config.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("sweep lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, b := seq[i], par[i]
		if len(a.Windows) != len(b.Windows) {
			t.Fatalf("%s: window counts differ", a.Benchmark)
		}
		for w := range a.Windows {
			if a.Windows[w] != b.Windows[w] {
				t.Fatalf("%s window %d: parallel sweep diverged:\n%+v\nvs\n%+v",
					a.Benchmark, w, a.Windows[w], b.Windows[w])
			}
		}
		if a.IPC != b.IPC || a.EffFetchRate != b.EffFetchRate {
			t.Fatalf("%s: estimates diverged across worker counts", a.Benchmark)
		}
	}
}

// TestRunSampledMetricsAndEvents: the sampled path emits the same
// queued/started/done event shape as the detailed path: one executed
// request with sampled provenance, and one memo hit with memoized
// provenance sharing its result.
func TestRunSampledMetricsAndEvents(t *testing.T) {
	r := sampledRunner(1)
	var events []RunEvent
	r.OnRun = func(ev RunEvent) { events = append(events, ev) }

	if _, err := r.RunSampledE(config.Baseline(), "gcc"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunSampledE(config.Baseline(), "gcc"); err != nil {
		t.Fatal(err)
	}

	var phases []RunPhase
	var provs []string
	for _, ev := range events {
		phases = append(phases, ev.Phase)
		if ev.Phase == RunDone {
			provs = append(provs, ev.Provenance)
			if ev.Run == nil || ev.Run.Meta == nil || ev.Run.Meta.Sampling == nil {
				t.Fatalf("RunDone event run lacks sampling metadata: %+v", ev.Run)
			}
		}
	}
	wantPhases := []RunPhase{RunQueued, RunStarted, RunDone, RunDone}
	for i := range wantPhases {
		if i >= len(phases) || phases[i] != wantPhases[i] {
			t.Fatalf("event phases = %v, want %v", phases, wantPhases)
		}
	}
	if len(events) != len(wantPhases) || provs[0] != stats.ProvSampled || provs[1] != stats.ProvMemoized {
		t.Fatalf("%d events, RunDone provenances %v, want 4 and [sampled memoized]", len(events), provs)
	}
	if events[2].Memoized || !events[3].Memoized || events[2].Run != events[3].Run {
		t.Fatal("the second RunDone does not share the first one's result as a memo hit")
	}
}

// TestRunSampledCheckpointFork: with FastForward set, the sampled run
// forks no checkpoint. It keeps sampled provenance, records the prefix in
// its metadata, and returns exactly what sampling.Run returns on a fresh
// simulator that executes and warms the same prefix.
func TestRunSampledCheckpointFork(t *testing.T) {
	const ffwd = 30_000
	r := sampledRunner(1)
	r.FastForward = ffwd
	sm, err := r.RunSampledE(config.Baseline(), "gcc")
	if err != nil {
		t.Fatal(err)
	}
	if sm.Meta == nil || sm.Meta.Provenance != stats.ProvSampled || sm.Meta.FastForwardInsts != ffwd {
		t.Fatalf("meta = %+v, want sampled provenance with ffwd %d", sm.Meta, ffwd)
	}

	prog, err := workload.SharedProgram("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Baseline()
	cfg.FastForwardInsts, cfg.MaxInsts, cfg.Sampling = ffwd, r.Budget, r.Sampling
	s, err := sim.New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sampling.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	got, want := *sm, *out.Sampled
	got.Meta, want.Meta = nil, nil // wall time and hostname legitimately differ
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RunSampledE differs from sampling.Run:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunSampledRequiresSchedule: RunSampledE without Runner.Sampling
// fails fast instead of silently running detailed.
func TestRunSampledRequiresSchedule(t *testing.T) {
	r := NewRunner(2000, 100_000)
	if _, err := r.RunSampledE(config.Baseline(), "gcc"); err == nil {
		t.Fatal("RunSampledE accepted a runner without a sampling schedule")
	}
}
