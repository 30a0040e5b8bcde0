package metrics

import (
	"strings"
	"sync"
	"testing"

	"tracecache/internal/obs"
)

// TestConcurrentUpdates hammers one counter, gauge and histogram from many
// goroutines (run under -race in CI) and checks the totals are exact.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "test counter")
	g := r.Gauge("g", "test gauge")
	h := r.Histogram("h_seconds", "test histogram", []float64{1, 10})

	const goroutines = 16
	const perG = 5000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(j % 3 * 5)) // 0, 5, 10
			}
			// Registration of the same series must be idempotent and safe
			// concurrently with updates.
			if got := r.Counter("c_total", "test counter"); got != c {
				t.Errorf("goroutine %d: re-registration returned a new counter", i)
			}
		}(i)
	}
	wg.Wait()

	if got, want := c.Value(), uint64(goroutines*perG); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got, want := h.Count(), uint64(goroutines*perG); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	var perGoroutineSum float64
	for j := 0; j < perG; j++ {
		perGoroutineSum += float64(j % 3 * 5)
	}
	if got, want := h.Sum(), float64(goroutines)*perGoroutineSum; got != want {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
}

// TestHistogramBucketBoundaries pins the le (less-or-equal) bucket
// semantics: an observation equal to an upper bound lands in that bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "t", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 5, 6} {
		h.Observe(v)
	}
	bounds, cum := h.Cumulative()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("bounds %v cum %v", bounds, cum)
	}
	// le=1: {0.5, 1}; le=2: +{1.5, 2}; le=5: +{3, 5}; +Inf: +{6}.
	want := []uint64{2, 4, 6, 7}
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], want[i])
		}
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+3+5+6; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
}

// TestZeroValueExposition checks created-but-untouched metrics expose
// explicit zero samples (Prometheus scrapes must see the series exist).
func TestZeroValueExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", "runs")
	r.Gauge("busy", "busy workers")
	r.Histogram("wall_seconds", "wall", []float64{1})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"runs_total 0\n",
		"busy 0\n",
		`wall_seconds_bucket{le="1"} 0` + "\n",
		`wall_seconds_bucket{le="+Inf"} 0` + "\n",
		"wall_seconds_sum 0\n",
		"wall_seconds_count 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestLabelledFamilies checks one family holds several labelled series
// under a single HELP/TYPE header, with canonical label ordering.
func TestLabelledFamilies(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("events_total", "events", "kind", "hit")
	b := r.Counter("events_total", "events", "kind", "miss")
	if a == b {
		t.Fatal("distinct label sets shared one counter")
	}
	// Same pairs in a different key order must resolve to the same series.
	c := r.Counter("multi_total", "m", "b", "2", "a", "1")
	d := r.Counter("multi_total", "m", "a", "1", "b", "2")
	if c != d {
		t.Fatal("label order changed series identity")
	}
	a.Add(3)
	b.Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "# TYPE events_total counter"); n != 1 {
		t.Errorf("TYPE lines for events_total = %d, want 1\n%s", n, out)
	}
	for _, want := range []string{
		`events_total{kind="hit"} 3`,
		`events_total{kind="miss"} 1`,
		`multi_total{a="1",b="2"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestKindMismatchPanics pins that reusing a name across metric kinds is
// reported as a programming error.
func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "x")
	defer func() {
		if recover() == nil {
			t.Error("Gauge on a counter name did not panic")
		}
	}()
	r.Gauge("x", "x")
}

// TestBusSink checks the obs bridge counts events by kind.
func TestBusSink(t *testing.T) {
	r := NewRegistry()
	sink := NewBusSink(r)
	bus := obs.NewBus(16)
	bus.Attach(sink)
	bus.Emit(obs.Event{Kind: obs.KindTCHit})
	bus.Emit(obs.Event{Kind: obs.KindTCHit})
	bus.Emit(obs.Event{Kind: obs.KindTCMiss})

	hit := r.Counter("tracecache_obs_events_total", "", "kind", obs.KindTCHit.String())
	miss := r.Counter("tracecache_obs_events_total", "", "kind", obs.KindTCMiss.String())
	promote := r.Counter("tracecache_obs_events_total", "", "kind", obs.KindPromote.String())
	if hit.Value() != 2 || miss.Value() != 1 || promote.Value() != 0 {
		t.Errorf("bridge counts: hit %d miss %d promote %d", hit.Value(), miss.Value(), promote.Value())
	}
}
