package experiments

import (
	"strings"
	"sync"
	"testing"

	"tracecache/internal/config"
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

// TestInstrumentedSweep checks the event identities of a concurrent
// sweep with duplicate requests: every unique key simulates exactly once
// (one queued, started and cold RunDone), every duplicate is a memo hit
// sharing that result, and every executed point reports its slot wall
// time and measured instructions.
func TestInstrumentedSweep(t *testing.T) {
	r := parallelBudgetRunner(4)
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
			if ev.Provenance != stats.ProvMemoized || ev.Wall != 0 || ev.QueueWait != 0 {
				t.Errorf("memoized done = %s, %v wall, %v queue wait; want %s and zero times",
					ev.Provenance, ev.Wall, ev.QueueWait, stats.ProvMemoized)
			}
		} else if ev.Provenance != stats.ProvCold || ev.Wall <= 0 || ev.Run.Retired < r.Budget {
			t.Errorf("executed done = %s, %v wall, %d retired; want %s, a wall time and >= %d retired",
				ev.Provenance, ev.Wall, ev.Run.Retired, stats.ProvCold, r.Budget)
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

// TestFailedRunMetrics checks a failing request emits one RunDone that
// carries the error and no run, and is not a memo hit.
func TestFailedRunMetrics(t *testing.T) {
	r := parallelBudgetRunner(2)
	log := &eventLog{}
	r.OnRun = log.listen

	if _, err := r.RunE(config.Baseline(), "no-such-benchmark"); err == nil {
		t.Fatal("expected an error for an unknown benchmark")
	}
	dones := log.byPhase(RunDone)
	if len(dones) != 1 || dones[0].Err == nil || dones[0].Run != nil || dones[0].Memoized {
		t.Errorf("done events = %+v, want one executed request carrying the error and a nil run", dones)
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

// TestInstrumentationPreservesOutput pins that an OnRun listener
// changes no experiment output byte: a listened 4-worker sweep prints
// what a bare 4-worker sweep prints, and what a bare serial sweep
// prints.
func TestInstrumentationPreservesOutput(t *testing.T) {
	render := func(workers int, listen bool) string {
		r := parallelBudgetRunner(workers)
		if listen {
			r.OnRun = MultiListener((&eventLog{}).listen)
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
	listened := render(4, true)
	t.Run("bare-parallel", func(t *testing.T) {
		if render(4, false) != listened {
			t.Error("an OnRun listener changed experiment output")
		}
	})
	t.Run("bare-serial", func(t *testing.T) {
		if render(1, false) != listened {
			t.Error("a listened 4-worker sweep printed other bytes than a bare serial sweep")
		}
	})
}
