package experiments_test

import (
	"bytes"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"tracecache/internal/config"
	"tracecache/internal/experiments"
	"tracecache/internal/journal"
	"tracecache/internal/resultstore"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
)

// storeSweep fans a small sweep (2 configurations × 3 benchmarks, every
// request duplicated once for memo hits) through a fresh journaled
// runner sharing the given store, and returns the journal's record count
// per provenance and the runs by point.
func storeSweep(t *testing.T, store *resultstore.Store) (map[string]int, map[string]*stats.Run) {
	t.Helper()
	r := experiments.NewRunner(1_000, 3_000)
	r.Workers = 4
	r.Store = store

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
	prov := make(map[string]int)
	for _, rec := range recs {
		if rec.Error != "" {
			t.Errorf("failed record: %+v", rec)
		}
		if rec.Provenance == stats.ProvStore && rec.Meta == nil {
			t.Errorf("store record lost its meta: %+v", rec)
		}
		prov[rec.Provenance]++
	}
	return prov, runs
}

// lastProvenance makes r record the provenance of its RunDone events and
// returns a reader of the latest one. Use it with one request at a time.
func lastProvenance(r *experiments.Runner) func() string {
	var prov string
	r.OnRun = func(ev experiments.RunEvent) {
		if ev.Phase == experiments.RunDone {
			prov = ev.Provenance
		}
	}
	return func() string { return prov }
}

// TestSweepStoreTieOut mirrors the journal tie-out across the
// persistent store: a first sweep populates the store (all simulated), a
// second sweep through a fresh runner — the restarted-process shape — is
// served entirely from disk, and on both sides the store's entries tie
// out against the journal's provenance counts. The served numbers are
// the verbatim originals.
func TestSweepStoreTieOut(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const points = 6 // 2 configurations × 3 benchmarks
	want := func(sweep string, prov map[string]int, cold, served int) {
		t.Helper()
		if prov[stats.ProvCold] != cold || prov[stats.ProvStore] != served || prov[stats.ProvMemoized] != points {
			t.Errorf("%s sweep journal provenances = %v, want %d cold, %d store and %d memoized",
				sweep, prov, cold, served, points)
		}
		if n, _ := store.Len(); n != points {
			t.Errorf("after the %s sweep the store holds %d entries, want %d", sweep, n, points)
		}
		if q, _ := filepath.Glob(filepath.Join(dir, "*.quarantined")); len(q) != 0 {
			t.Errorf("after the %s sweep the store quarantined %v", sweep, q)
		}
	}

	// First sweep: every executed request misses the store, simulates and
	// installs its entry.
	prov1, runs1 := storeSweep(t, store)
	want("first", prov1, points, 0)

	// Second sweep, fresh runner sharing the directory: the restarted
	// process. Zero simulations — every executing request is store-served.
	prov2, runs2 := storeSweep(t, store)
	want("second", prov2, 0, points)

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
	runner := func(check bool) *experiments.Runner {
		r := experiments.NewRunner(1_000, 3_000)
		r.Workers = 1
		r.Store = store
		r.Check = check
		return r
	}
	checked := runner(true)
	bench := checked.Benchmarks()[0]
	if _, err := checked.RunE(config.Baseline(), bench); err != nil {
		t.Fatal(err)
	}
	if n, _ := store.Len(); n != 0 {
		t.Errorf("checked run seeded the store with %d entries", n)
	}

	// A checked run hashes as its unchecked twin, so once an unchecked run
	// has stored the point, only the bypass keeps the checked run from
	// being served it.
	if _, err := runner(false).RunE(config.Baseline(), bench); err != nil {
		t.Fatal(err)
	}
	r := runner(true)
	prov := lastProvenance(r)
	if _, err := r.RunE(config.Baseline(), bench); err != nil {
		t.Fatal(err)
	}
	if prov() != stats.ProvCold {
		t.Errorf("checked run over a stored point has provenance %q, want %q", prov(), stats.ProvCold)
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
	prov := lastProvenance(rs2)
	sm2, err := rs2.RunSampledE(config.Baseline(), bench)
	if err != nil {
		t.Fatal(err)
	}
	if prov() != stats.ProvStore {
		t.Errorf("sampled resubmission provenance = %q, want %q", prov(), stats.ProvStore)
	}
	if !reflect.DeepEqual(sm, sm2) {
		t.Errorf("sampled aggregate differs:\nfirst  %+v\nsecond %+v", sm, sm2)
	}
}

// TestStoreReplayModeSeparation checks that a replaying request reads and
// writes only replay entries: a store seeded by a detailed runner must not
// serve it, so its result equals a store-less replaying runner's, and a
// second replaying runner is then served that replayed result verbatim.
func TestStoreReplayModeSeparation(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const bench = "compress"
	runner := func(replay bool, store *resultstore.Store) *experiments.Runner {
		r := experiments.NewRunner(1_000, 3_000)
		r.Workers = 1
		r.Replay = replay
		r.Store = store
		return r
	}
	if _, err := runner(false, store).RunE(config.Baseline(), bench); err != nil {
		t.Fatal(err)
	}

	got, err := runner(true, store).RunE(config.Baseline(), bench)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta == nil || got.Meta.Provenance != stats.ProvReplay {
		t.Fatalf("replaying run provenance = %+v, want freshly replayed", got.Meta)
	}
	want, err := runner(true, nil).RunE(config.Baseline(), bench)
	if err != nil {
		t.Fatal(err)
	}
	g, w := *got, *want
	g.Meta, w.Meta = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Errorf("replaying run with a detailed store differs from a store-less one:\n got %+v\nwant %+v", g, w)
	}
	if n, _ := store.Len(); n != 2 {
		t.Errorf("store holds %d entries, want detailed + replay", n)
	}

	r := runner(true, store)
	prov := lastProvenance(r)
	served, err := r.RunE(config.Baseline(), bench)
	if err != nil {
		t.Fatal(err)
	}
	if prov() != stats.ProvStore {
		t.Errorf("replay resubmission provenance = %q, want %q", prov(), stats.ProvStore)
	}
	if !reflect.DeepEqual(served, got) {
		t.Errorf("served replay entry differs:\n got %+v\nwant %+v", served, got)
	}
}
