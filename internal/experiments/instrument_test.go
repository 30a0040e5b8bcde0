package experiments

import (
	"strings"
	"sync"
	"testing"

	"tracecache/internal/config"
	"tracecache/internal/metrics"
	"tracecache/internal/obs"
	"tracecache/internal/stats"
)

// eventLog collects RunEvents under a mutex (OnRun is called from many
// goroutines).
type eventLog struct {
	mu  sync.Mutex
	evs []RunEvent
}

func (l *eventLog) listen(ev RunEvent) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *eventLog) byPhase(p RunPhase) []RunEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []RunEvent
	for _, ev := range l.evs {
		if ev.Phase == p {
			out = append(out, ev)
		}
	}
	return out
}

// TestInstrumentedSweep checks the counter identities after a concurrent
// sweep with duplicate requests: every unique key simulates exactly once
// (a memo miss and a cold start), every duplicate is a memo hit, and the
// per-run histograms saw exactly one observation per started simulation.
func TestInstrumentedSweep(t *testing.T) {
	r := parallelBudgetRunner(4)
	reg := metrics.NewRegistry()
	m := InstrumentRunner(reg)
	r.Metrics = m
	log := &eventLog{}
	r.OnRun = log.listen

	cfg := config.Baseline()
	benches := r.Benchmarks()
	const dup = 3
	var wg sync.WaitGroup
	for range dup {
		for _, b := range benches {
			wg.Add(1)
			go func(b string) {
				defer wg.Done()
				if _, err := r.RunE(cfg, b); err != nil {
					t.Errorf("RunE(%s): %v", b, err)
				}
			}(b)
		}
	}
	wg.Wait()

	unique := uint64(len(benches))
	total := uint64(dup) * unique
	if got := m.MemoMisses.Value(); got != unique {
		t.Errorf("memo misses = %d, want %d", got, unique)
	}
	if got := m.MemoHits.Value(); got != total-unique {
		t.Errorf("memo hits = %d, want %d", got, total-unique)
	}
	if got := m.RunsStarted.Value(); got != unique {
		t.Errorf("runs started = %d, want %d", got, unique)
	}
	if got := m.RunsCompleted.Value(); got != unique {
		t.Errorf("runs completed = %d, want %d", got, unique)
	}
	if got := m.RunsFailed.Value(); got != 0 {
		t.Errorf("runs failed = %d, want 0", got)
	}
	if got := m.ColdStarts.Value(); got != unique {
		t.Errorf("cold starts = %d, want %d (no fast-forward configured)", got, unique)
	}
	if got := m.WorkersBusy.Value(); got != 0 {
		t.Errorf("workers busy = %d after quiescence, want 0", got)
	}
	if got := m.WorkersLimit.Value(); got != 4 {
		t.Errorf("workers limit = %d, want 4", got)
	}
	if got := m.QueueWait.Count(); got != unique {
		t.Errorf("queue-wait observations = %d, want %d", got, unique)
	}
	if got := m.RunWall.Count(); got != unique {
		t.Errorf("run-wall observations = %d, want %d", got, unique)
	}
	if got := m.Sim.Insts.Value(); got == 0 {
		t.Error("sim insts counter did not move")
	}

	// Event stream: one queued+started per unique key, one done per
	// request; memoized done events carry the identical *stats.Run.
	if got := len(log.byPhase(RunQueued)); got != int(unique) {
		t.Errorf("queued events = %d, want %d", got, unique)
	}
	if got := len(log.byPhase(RunStarted)); got != int(unique) {
		t.Errorf("started events = %d, want %d", got, unique)
	}
	dones := log.byPhase(RunDone)
	if len(dones) != int(total) {
		t.Fatalf("done events = %d, want %d", len(dones), total)
	}
	byKey := map[string]*stats.Run{}
	var memoized int
	for _, ev := range dones {
		if ev.Err != nil {
			t.Fatalf("done event with error: %v", ev.Err)
		}
		if ev.Memoized {
			memoized++
			if ev.Provenance != stats.ProvMemoized {
				t.Errorf("memoized done provenance = %q, want %q", ev.Provenance, stats.ProvMemoized)
			}
		} else if ev.Provenance != stats.ProvCold {
			t.Errorf("executed done provenance = %q, want %q", ev.Provenance, stats.ProvCold)
		}
		if prev, ok := byKey[ev.Key]; ok {
			if prev != ev.Run {
				t.Errorf("%s: done events disagree on the run pointer", ev.Key)
			}
		} else {
			byKey[ev.Key] = ev.Run
		}
	}
	if memoized != int(total-unique) {
		t.Errorf("memoized done events = %d, want %d", memoized, total-unique)
	}
}

// TestFailedRunMetrics checks a failing request increments RunsFailed and
// emits a done event carrying the error.
func TestFailedRunMetrics(t *testing.T) {
	r := parallelBudgetRunner(2)
	m := InstrumentRunner(metrics.NewRegistry())
	r.Metrics = m
	log := &eventLog{}
	r.OnRun = log.listen

	if _, err := r.RunE(config.Baseline(), "no-such-benchmark"); err == nil {
		t.Fatal("expected an error for an unknown benchmark")
	}
	if got := m.RunsFailed.Value(); got != 1 {
		t.Errorf("runs failed = %d, want 1", got)
	}
	if got := m.RunsCompleted.Value(); got != 0 {
		t.Errorf("runs completed = %d, want 0", got)
	}
	dones := log.byPhase(RunDone)
	if len(dones) != 1 || dones[0].Err == nil || dones[0].Run != nil {
		t.Errorf("done events = %+v, want one carrying the error and a nil run", dones)
	}
}

// TestRunnerObserverBridge checks the per-simulation bus factory feeds a
// shared metrics.BusSink across a concurrent sweep.
func TestRunnerObserverBridge(t *testing.T) {
	r := parallelBudgetRunner(4)
	reg := metrics.NewRegistry()
	sink := metrics.NewBusSink(reg)
	r.NewObserver = func() *obs.Bus {
		b := obs.NewBus()
		b.Attach(sink)
		return b
	}
	if _, err := r.SweepE(config.Baseline()); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `tracecache_obs_events_total{kind="`) {
		t.Errorf("no obs events reached the bridge; exposition:\n%s", sb.String())
	}
}

// TestMultiListener checks fan-out order and nil-listener elision.
func TestMultiListener(t *testing.T) {
	if MultiListener(nil, nil) != nil {
		t.Error("MultiListener of nils should be nil")
	}
	var order []string
	a := func(RunEvent) { order = append(order, "a") }
	b := func(RunEvent) { order = append(order, "b") }
	l := MultiListener(a, nil, b)
	l(RunEvent{})
	if strings.Join(order, "") != "ab" {
		t.Errorf("fan-out order = %v, want [a b]", order)
	}
}

// TestInstrumentationPreservesOutput pins that attaching the full
// instrumentation stack changes no experiment output byte.
func TestInstrumentationPreservesOutput(t *testing.T) {
	render := func(instrument bool) string {
		r := parallelBudgetRunner(4)
		if instrument {
			reg := metrics.NewRegistry()
			r.Metrics = InstrumentRunner(reg)
			sink := metrics.NewBusSink(reg)
			r.NewObserver = func() *obs.Bus {
				b := obs.NewBus()
				b.Attach(sink)
				return b
			}
			r.OnRun = MultiListener(func(RunEvent) {})
		}
		var sb strings.Builder
		err := RunAll(r, parallelTestExperiments(t), func(e Experiment, out string) {
			sb.WriteString(out)
		})
		if err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if plain, metered := render(false), render(true); plain != metered {
		t.Error("instrumentation changed experiment output")
	}
}
