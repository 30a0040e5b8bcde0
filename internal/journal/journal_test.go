package journal

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tracecache/internal/config"
	"tracecache/internal/experiments"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// forkLine is a record as journals carried it while fast-forwarded
// points forked a shared architectural checkpoint: provenance
// "checkpoint-fork" and a meta field, checkpointShared, that the current
// schema no longer has. Such journals must still read, report and diff.
const forkLine = `{"time":"2026-08-08T10:00:01Z","config":"baseline","benchmark":"go",` +
	`"provenance":"checkpoint-fork","cycles":1500,"retired":3000,"ipc":2,` +
	`"effFetchRate":2.618,"condMispredictPct":8.4,"wallMillis":38.2,"queueWaitMillis":1.25,` +
	`"meta":{"warmupInsts":1000,"maxInsts":3000,"fastForwardInsts":100000,` +
	`"checkpointShared":true,"provenance":"checkpoint-fork","wallMillis":38.2}}`

func sampleRecords(t testing.TB) []Record {
	t.Helper()
	fork, truncated, err := Read(strings.NewReader(forkLine + "\n"))
	if err != nil || truncated || len(fork) != 1 || fork[0].Meta == nil ||
		fork[0].Meta.FastForwardInsts != 100_000 {
		t.Fatalf("checkpoint-fork record: %+v, truncated=%v, err=%v", fork, truncated, err)
	}
	return []Record{
		{Time: "2026-08-08T10:00:00Z", Config: "baseline", Benchmark: "gcc",
			Provenance: stats.ProvCold, Cycles: 1200, Retired: 3000, IPC: 2.5,
			EffFetchRate: 2.914, CondMispredictPct: 6.21, WallMillis: 41.5,
			Meta: &stats.Meta{Tool: "tcbench", WarmupInsts: 1000, MaxInsts: 3000,
				Provenance: stats.ProvCold}},
		fork[0],
		{Time: "2026-08-08T10:00:02Z", Config: "packing", Benchmark: "gcc",
			Provenance: stats.ProvMemoized, Cycles: 1200, Retired: 3000, IPC: 2.5,
			EffFetchRate: 2.914, CondMispredictPct: 6.21},
		{Time: "2026-08-08T10:00:03Z", Config: "packing", Benchmark: "go",
			Error: "experiments: packing/go: boom"},
	}
}

// TestRoundTrip checks Append/Read preserve records exactly.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := sampleRecords(t)
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, truncated, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Error("clean journal reported a truncated tail")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestOpenFileAppends checks OpenFile appends across reopenings.
func TestOpenFileAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	recs := sampleRecords(t)
	for _, rec := range recs[:2] {
		w, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Benchmark != "gcc" || got[1].Benchmark != "go" {
		t.Errorf("reopened journal = %+v", got)
	}
}

// TestMultiWriterInterleaving is the regression test for concurrent
// appenders sharing one journal file, as concurrent tcbench and tcsim
// runs do: several Writers on independently opened O_APPEND descriptors
// (the multi-process shape, minus fork), each appending from several
// goroutines. Every record must come back intact — records interleave,
// lines never do.
func TestMultiWriterInterleaving(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	const writers, goroutines, perG = 3, 4, 50

	// A long padding field makes each line span multiple kilobytes, so a
	// write split into pieces would almost surely interleave mid-line.
	pad := strings.Repeat("x", 4096)
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		w, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(wi, g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					rec := Record{
						Config:    "baseline",
						Benchmark: "gcc",
						// Error doubles as the payload slot: writer/goroutine/
						// sequence identity plus padding.
						Error:   fmt.Sprintf("w%d-g%d-i%d:%s", wi, g, i, pad),
						Retired: uint64(wi*1000 + g*100 + i),
					}
					if err := w.Append(rec); err != nil {
						t.Errorf("Append: %v", err)
						return
					}
				}
			}(wi, g)
		}
	}
	wg.Wait()

	recs, truncated, err := ReadFile(path)
	if err != nil {
		t.Fatalf("interleaved journal does not parse: %v", err)
	}
	if truncated {
		t.Error("fully flushed journal reported a truncated tail")
	}
	if want := writers * goroutines * perG; len(recs) != want {
		t.Fatalf("read back %d records, want %d", len(recs), want)
	}
	seen := make(map[string]bool, len(recs))
	for _, rec := range recs {
		id, _, ok := strings.Cut(rec.Error, ":")
		if !ok || rec.Error[len(id)+1:] != pad {
			t.Fatalf("record payload corrupted: %.80q...", rec.Error)
		}
		if seen[id] {
			t.Fatalf("record %s appears twice", id)
		}
		seen[id] = true
	}
}

// TestAppendAfterCloseDiscards checks the Close/Append race contract: a
// writer closed mid-sweep discards later appends instead of writing to a
// closed descriptor.
func TestAppendAfterCloseDiscards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	w, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(sampleRecords(t)[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := w.Append(sampleRecords(t)[1]); err != nil {
		t.Errorf("Append after Close should discard, got %v", err)
	}
	recs, _, err := ReadFile(path)
	if err != nil || len(recs) != 1 {
		t.Errorf("journal holds %d records (err=%v), want the pre-Close record only", len(recs), err)
	}
}

// TestTruncatedTail checks a final line cut mid-record is skipped with the
// truncated flag, while mid-file corruption is an error.
func TestTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range sampleRecords(t)[:2] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	full := buf.String()

	// Simulate a crash mid-append: cut the final line short.
	cut := full[:len(full)-10]
	got, truncated, err := Read(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated tail should not error: %v", err)
	}
	if !truncated {
		t.Error("truncated tail not reported")
	}
	if len(got) != 1 || got[0].Benchmark != "gcc" {
		t.Errorf("records before the cut = %+v, want the first record only", got)
	}

	// An unterminated but parseable final line is also treated as suspect.
	got, truncated, err = Read(strings.NewReader(strings.TrimSuffix(full, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if !truncated || len(got) != 1 {
		t.Errorf("unterminated final line: records=%d truncated=%v, want 1/true", len(got), truncated)
	}

	// Corruption before the tail is an error, not silent data loss.
	corrupt := "{bogus\n" + full
	if _, _, err := Read(strings.NewReader(corrupt)); err == nil {
		t.Error("mid-file corruption should error")
	}

	// Blank lines are ignored.
	got, _, err = Read(strings.NewReader("\n" + full + "\n"))
	if err != nil || len(got) != 2 {
		t.Errorf("blank-line tolerance: records=%d err=%v", len(got), err)
	}
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch for %s:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestReportGolden pins the summary rendering.
func TestReportGolden(t *testing.T) {
	checkGolden(t, "report.golden", Report(sampleRecords(t), false))
}

// TestDiffGolden pins the journal-diff rendering.
func TestDiffGolden(t *testing.T) {
	a := sampleRecords(t)
	b := append([]Record(nil), a...)
	// b: improved gcc, regressed go, dropped the failed point, added one.
	b[0].EffFetchRate, b[0].IPC = 3.205, 2.75
	b[1].EffFetchRate, b[1].IPC = 2.549, 1.9
	b = b[:3]
	b = append(b, Record{Config: "promotion", Benchmark: "gcc",
		Provenance: stats.ProvCold, IPC: 2.6, EffFetchRate: 3.01,
		CondMispredictPct: 5.9})
	checkGolden(t, "diff.golden", Diff(sampleRecords(t), b))
}

// TestSweepTieOut runs a real 10-point sweep (2 configurations × 5
// benchmarks, with duplicate requests) plus one failing request through
// a journaled runner and checks the journal alone reproduces the
// runner's RunDone events: every request has exactly one record,
// carrying its event's provenance, and the measured insts the report
// prints are those of the executed events. Subtest failed-request checks
// the failing request's record.
func TestSweepTieOut(t *testing.T) {
	r := experiments.NewRunner(1_000, 3_000)
	r.Workers = 4

	var buf bytes.Buffer
	w := NewWriter(&buf)
	var errMu sync.Mutex
	var appendErrs []error
	eventProv := map[string]int{}
	var executedInsts uint64
	r.OnRun = experiments.MultiListener(RunnerListener(w, func(err error) {
		errMu.Lock()
		appendErrs = append(appendErrs, err)
		errMu.Unlock()
	}), func(ev experiments.RunEvent) {
		if ev.Phase != experiments.RunDone {
			return
		}
		errMu.Lock()
		defer errMu.Unlock()
		eventProv[ev.Provenance]++
		if !ev.Memoized && ev.Err == nil {
			executedInsts += ev.Run.Retired
		}
	})

	cfgA := config.Baseline()
	cfgB := config.Baseline()
	cfgB.Name = "baseline-copy"
	bad := config.Baseline()
	bad.Name = "bad-engine"
	bad.Engine.FUs = 0
	type request struct {
		cfg   sim.Config
		bench string
	}
	reqs := []request{{bad, "gcc"}}
	for range 2 { // duplicate every request once → memo hits
		for _, b := range r.Benchmarks()[:5] {
			reqs = append(reqs, request{cfgA, b}, request{cfgB, b})
		}
	}
	var wg sync.WaitGroup
	for _, q := range reqs {
		wg.Add(1)
		go func(q request) {
			defer wg.Done()
			if _, err := r.RunE(q.cfg, q.bench); (err != nil) != (q.cfg.Name == bad.Name) {
				t.Errorf("RunE(%s, %s): %v", q.cfg.Name, q.bench, err)
			}
		}(q)
	}
	wg.Wait()
	if len(appendErrs) > 0 {
		t.Fatalf("journal append errors: %v", appendErrs)
	}

	recs, truncated, err := Read(&buf)
	if err != nil || truncated {
		t.Fatalf("read back: err=%v truncated=%v", err, truncated)
	}
	if got, want := len(recs), len(reqs); got != want {
		t.Errorf("journal records = %d, want one per request, %d", got, want)
	}
	prov := map[string]int{}
	for _, rec := range recs {
		prov[rec.Provenance]++
		if rec.Error != "" {
			continue
		}
		if rec.Retired == 0 || rec.IPC == 0 {
			t.Errorf("record missing statistics: %+v", rec)
		}
		if rec.Meta == nil {
			t.Errorf("record missing meta: %+v", rec)
		}
	}
	if !reflect.DeepEqual(prov, eventProv) {
		t.Errorf("journal provenances = %v, RunDone events %v", prov, eventProv)
	}

	// The report reproduces the sweep summary from the journal alone.
	rep := Report(recs, false)
	if !strings.Contains(rep, "10 cold") || !strings.Contains(rep, "10 memoized") ||
		!strings.Contains(rep, fmt.Sprintf("simulated: %d measured insts", executedInsts)) {
		t.Errorf("report does not reflect the sweep (%d measured insts):\n%s", executedInsts, rep)
	}

	// The failing request is journaled once, beside the sweep's executed
	// and memoized records, and its record carries the error, not a run.
	t.Run("failed-request", func(t *testing.T) {
		var executed, failed, memo int
		for _, rec := range recs {
			switch {
			case rec.Error != "":
				failed++
				if rec.Config != bad.Name || !strings.Contains(rec.Error, "bad-engine/gcc") || rec.Meta != nil {
					t.Errorf("failed record does not carry its request's error: %+v", rec)
				}
			case rec.Provenance == stats.ProvMemoized:
				memo++
			default:
				executed++
			}
		}
		if executed != 10 || failed != 1 || memo != 10 {
			t.Errorf("journal holds %d executed, %d failed and %d memoized records, want 10, 1 and 10",
				executed, failed, memo)
		}
	})
}
