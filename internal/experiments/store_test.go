package experiments_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"tracecache/internal/config"
	"tracecache/internal/experiments"
	"tracecache/internal/journal"
	"tracecache/internal/metrics"
	"tracecache/internal/resultstore"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
)

// storeSweep fans a small sweep (2 configurations × 3 benchmarks, every
// request duplicated once for memo hits) through a fresh instrumented,
// journaled runner sharing the given store, and returns the runner's
// metrics, the journal records, and the runs in request order.
func storeSweep(t *testing.T, store *resultstore.Store) (*experiments.RunnerMetrics, []journal.Record, map[string]*stats.Run) {
	t.Helper()
	r := experiments.NewRunner(1_000, 3_000)
	r.Workers = 4
	r.Store = store
	m := experiments.InstrumentRunner(metrics.NewRegistry())
	r.Metrics = m

	var buf bytes.Buffer
	w := journal.NewWriter(&buf)
	r.OnRun = journal.RunnerListener(w, func(err error) { t.Errorf("journal: %v", err) })

	cfgA := config.Baseline()
	cfgB := config.Packing()
	benches := r.Benchmarks()[:3]
	runs := make(map[string]*stats.Run)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range 2 { // duplicate every request once → memo hits
		for _, b := range benches {
			for _, c := range []sim.Config{cfgA, cfgB} {
				wg.Add(1)
				go func(c sim.Config, b string) {
					defer wg.Done()
					run, err := r.RunE(c, b)
					if err != nil {
						t.Errorf("RunE(%s/%s): %v", c.Name, b, err)
						return
					}
					mu.Lock()
					runs[c.Name+"/"+b] = run
					mu.Unlock()
				}(c, b)
			}
		}
	}
	wg.Wait()
	recs, truncated, err := journal.Read(&buf)
	if err != nil || truncated {
		t.Fatalf("journal read back: err=%v truncated=%v", err, truncated)
	}
	return m, recs, runs
}

// TestSweepStoreTieOut mirrors PR 6's journal tie-out across the
// persistent store: a first sweep populates the store (all simulated), a
// second sweep through a fresh runner — the restarted-process shape — is
// served entirely from disk, and on both sides the store traffic ties out
// against the journal records and runner counters. The served numbers are
// the verbatim originals.
func TestSweepStoreTieOut(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.Metrics = resultstore.InstrumentStore(metrics.NewRegistry())
	const points = 6 // 2 configurations × 3 benchmarks

	// First sweep: every point misses the store and simulates.
	m1, recs1, runs1 := storeSweep(t, store)
	if got := m1.StoreServed.Value(); got != 0 {
		t.Errorf("first sweep store-served = %d, want 0", got)
	}
	if got := store.Metrics.Misses.Value(); got != points {
		t.Errorf("first sweep store misses = %d, want %d", got, points)
	}
	if got := store.Metrics.Puts.Value(); got != points {
		t.Errorf("first sweep store puts = %d, want %d", got, points)
	}
	if n, _ := store.Len(); n != points {
		t.Errorf("store holds %d entries, want %d", n, points)
	}
	// Store traffic ties out against the journal: every non-memoized
	// record is one lookup (hit or miss).
	var executed1 int
	for _, rec := range recs1 {
		if rec.Provenance != stats.ProvMemoized {
			executed1++
		}
	}
	if got := store.Metrics.Hits.Value() + store.Metrics.Misses.Value(); got != uint64(executed1) {
		t.Errorf("store hits+misses = %d, want %d executed journal records", got, executed1)
	}

	// Second sweep, fresh runner sharing the directory: the restarted
	// process. Zero simulations — every executing request is store-served.
	hitsBefore, missesBefore := store.Metrics.Hits.Value(), store.Metrics.Misses.Value()
	m2, recs2, runs2 := storeSweep(t, store)
	if got := m2.StoreServed.Value(); got != points {
		t.Errorf("second sweep store-served = %d, want %d", got, points)
	}
	if cold, replays := m2.ColdStarts.Value(), m2.Replays.Value(); cold+replays != 0 {
		t.Errorf("second sweep simulated: cold=%d replays=%d, want both 0", cold, replays)
	}
	if got := store.Metrics.Hits.Value() - hitsBefore; got != points {
		t.Errorf("second sweep store hits = %d, want %d", got, points)
	}
	if got := store.Metrics.Misses.Value() - missesBefore; got != 0 {
		t.Errorf("second sweep store misses = %d, want 0", got)
	}

	// Journal provenance: every executed record of the second sweep says
	// "store", and counts tie out against the runner's partition.
	prov := map[string]uint64{}
	for _, rec := range recs2 {
		if rec.Error != "" {
			t.Errorf("failed record: %+v", rec)
		}
		prov[rec.Provenance]++
		if rec.Provenance == stats.ProvStore && rec.Meta == nil {
			t.Errorf("store record lost its meta: %+v", rec)
		}
	}
	if got := prov[stats.ProvStore]; got != m2.StoreServed.Value() {
		t.Errorf("journal store records = %d, want %d", got, m2.StoreServed.Value())
	}
	if got := prov[stats.ProvCold]; got != 0 {
		t.Errorf("journal shows %d simulated records, want 0", got)
	}
	if got, want := uint64(len(recs2)), m2.MemoHits.Value()+m2.MemoMisses.Value(); got != want {
		t.Errorf("journal records = %d, want memo hits+misses = %d", got, want)
	}

	// Served results are the verbatim originals, provenance metadata and
	// all — the store changes where numbers come from, never the numbers.
	if len(runs2) != len(runs1) {
		t.Fatalf("second sweep resolved %d points, want %d", len(runs2), len(runs1))
	}
	for key, a := range runs1 {
		b := runs2[key]
		if b == nil {
			t.Fatalf("point %s missing from second sweep", key)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("point %s differs:\nfirst  %+v\nsecond %+v", key, a, b)
		}
	}
}

// TestStoreCheckBypass checks that self-verified runs neither read nor
// seed the store: a checked run must actually simulate.
func TestStoreCheckBypass(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.Metrics = resultstore.InstrumentStore(metrics.NewRegistry())

	r := experiments.NewRunner(1_000, 3_000)
	r.Workers = 1
	r.Store = store
	r.Check = true
	if _, err := r.RunE(config.Baseline(), r.Benchmarks()[0]); err != nil {
		t.Fatal(err)
	}
	if n, _ := store.Len(); n != 0 {
		t.Errorf("checked run seeded the store with %d entries", n)
	}
	if got := store.Metrics.Hits.Value() + store.Metrics.Misses.Value(); got != 0 {
		t.Errorf("checked run consulted the store %d times", got)
	}
}

// TestStoreSampledFidelity checks mode separation: a detailed run never
// serves a sampled request and vice versa, even for the same
// configuration name and benchmark.
func TestStoreSampledFidelity(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.Metrics = resultstore.InstrumentStore(metrics.NewRegistry())
	bench := "compress"

	// Detailed run populates a detailed entry.
	rd := experiments.NewRunner(1_000, 3_000)
	rd.Workers = 1
	rd.Store = store
	if _, err := rd.RunE(config.Baseline(), bench); err != nil {
		t.Fatal(err)
	}

	// A sampled request of the same configuration must not be served from
	// the detailed entry; it samples and stores its own.
	rs := experiments.NewRunner(0, 12_000)
	rs.Workers = 1
	rs.Store = store
	rs.Sampling = sim.SamplingParams{WindowInsts: 1_000, PeriodInsts: 4_000, WarmupInsts: 200}
	sm, err := rs.RunSampledE(config.Baseline(), bench)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Meta == nil || sm.Meta.Provenance != stats.ProvSampled {
		t.Fatalf("sampled run provenance = %+v, want freshly sampled", sm.Meta)
	}
	if n, _ := store.Len(); n != 2 {
		t.Errorf("store holds %d entries, want detailed + sampled", n)
	}

	// A second sampled runner with the same schedule is store-served, and
	// the aggregate comes back verbatim.
	rs2 := experiments.NewRunner(0, 12_000)
	rs2.Workers = 1
	rs2.Store = store
	rs2.Sampling = rs.Sampling
	m2 := experiments.InstrumentRunner(metrics.NewRegistry())
	rs2.Metrics = m2
	sm2, err := rs2.RunSampledE(config.Baseline(), bench)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.StoreServed.Value(); got != 1 {
		t.Errorf("sampled resubmission store-served = %d, want 1", got)
	}
	if !reflect.DeepEqual(sm, sm2) {
		t.Errorf("sampled aggregate differs:\nfirst  %+v\nsecond %+v", sm, sm2)
	}
}
