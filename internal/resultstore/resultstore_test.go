package resultstore_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tracecache/internal/resultstore"
	"tracecache/internal/stats"
)

func sampleEntry() *resultstore.Entry {
	return &resultstore.Entry{
		Key: resultstore.Key{
			ConfigHash: "cafebabe00112233",
			Benchmark:  "gcc",
			Mode:       resultstore.ModeDetailed,
		},
		Config: "baseline",
		Run: &stats.Run{
			Benchmark: "gcc", Config: "baseline",
			Cycles: 1200, Retired: 3000,
			Fetches: 1100, FetchedCorrect: 2950, FetchedWrong: 40,
			CondBranches: 400, CondMispredicts: 25,
			Meta: &stats.Meta{
				Tool: "tcbench", ConfigHash: "cafebabe00112233",
				WarmupInsts: 1000, MaxInsts: 3000,
				Provenance: stats.ProvCold, WallMillis: 41.5,
			},
		},
	}
}

func openStore(t testing.TB, dir string) *resultstore.Store {
	t.Helper()
	s, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// quarantined counts the entry files Get has set aside in dir.
func quarantined(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.quarantined"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// entryPath locates the single live entry file of a one-entry store.
func entryPath(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tcresult") {
			return filepath.Join(dir, e.Name())
		}
	}
	t.Fatal("no entry file in store")
	return ""
}

func TestRoundTrip(t *testing.T) {
	s := openStore(t, t.TempDir())
	want := sampleEntry()
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	// Put must not write to its caller's entry: concurrent Puts of one
	// entry would race on it.
	if !reflect.DeepEqual(want, sampleEntry()) {
		t.Errorf("Put modified its argument: got %+v, want %+v", want, sampleEntry())
	}
	got, err := s.Get(want.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("stored entry not found")
	}
	if !reflect.DeepEqual(got.Run, want.Run) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got.Run, want.Run)
	}
	if got.Config != "baseline" || got.Key != want.Key {
		t.Errorf("entry identity = (%q, %+v)", got.Config, got.Key)
	}
	if n, _ := s.Len(); n != 1 {
		t.Errorf("store holds %d entries, want 1", n)
	}
}

// TestPutOverwrites: a second Put of a key replaces its entry in place
// and leaves no temporary behind.
func TestPutOverwrites(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	first, second := sampleEntry(), sampleEntry()
	second.Run.Retired = 3001
	for _, e := range []*resultstore.Entry{first, second} {
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Get(first.Key)
	if err != nil || got == nil {
		t.Fatalf("Get after overwrite = (%v, %v)", got, err)
	}
	if got.Run.Retired != 3001 {
		t.Errorf("served Retired %d, want the second Put's 3001", got.Run.Retired)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("store directory holds %d files, want 1 (no stray temporaries)", len(ents))
	}
}

func TestMissingKeyIsPlainMiss(t *testing.T) {
	s := openStore(t, t.TempDir())
	e, err := s.Get(sampleEntry().Key)
	if e != nil || err != nil {
		t.Fatalf("empty-store Get = (%v, %v), want (nil, nil)", e, err)
	}
}

// TestStaleTempFileIgnored pins the stale-temporary decision: the
// temporary a killed install leaves behind is neither read, counted nor
// swept (a concurrent process may own it), and the key still installs
// and serves normally beside it.
func TestStaleTempFileIgnored(t *testing.T) {
	dir := t.TempDir()
	want := sampleEntry()
	stale := filepath.Join(dir, want.Key.FileName()+".tmp123")
	if err := os.WriteFile(stale, []byte("tcresult 3 0000"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir)
	if e, err := s.Get(want.Key); e != nil || err != nil {
		t.Fatalf("Get beside a stale temporary = (%v, %v), want a plain miss", e, err)
	}
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	if e, err := s.Get(want.Key); e == nil || err != nil {
		t.Fatalf("Get after Put = (%v, %v)", e, err)
	}
	if n, _ := s.Len(); n != 1 {
		t.Errorf("store holds %d entries, want 1 (temporaries are not entries)", n)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Errorf("stale temporary removed: %v", err)
	}
	if n := quarantined(t, dir); n != 0 {
		t.Errorf("%d quarantined files, want 0", n)
	}
}

// TestTruncatedEntryQuarantined covers the crash-mid-install shape: a cut
// file must be set aside (not fatal, not served) and the key must read as
// a miss afterwards.
func TestTruncatedEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	want := sampleEntry()
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, dir)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	e, err := s.Get(want.Key)
	if e != nil {
		t.Fatal("truncated entry was served")
	}
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("err = %v, want a quarantine report", err)
	}
	if _, serr := os.Stat(path + ".quarantined"); serr != nil {
		t.Errorf("quarantine file missing: %v", serr)
	}
	if n, _ := s.Len(); n != 0 {
		t.Errorf("store still counts %d live entries", n)
	}
	// The key is now a plain miss and can be repopulated.
	if e, err := s.Get(want.Key); e != nil || err != nil {
		t.Fatalf("post-quarantine Get = (%v, %v), want (nil, nil)", e, err)
	}
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	if e, err := s.Get(want.Key); e == nil || err != nil {
		t.Fatalf("repopulated Get = (%v, %v)", e, err)
	}
	if n := quarantined(t, dir); n != 1 {
		t.Errorf("%d quarantined files, want 1", n)
	}
}

// TestCorruptPayloadQuarantined flips one payload byte: the CRC must
// reject it.
func TestCorruptPayloadQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	want := sampleEntry()
	if err := s.Put(want); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, dir)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0x20 // still likely valid JSON text, but wrong bytes
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := s.Get(want.Key)
	if e != nil || err == nil {
		t.Fatalf("corrupt entry Get = (%v, %v), want quarantine error", e, err)
	}
	if !strings.Contains(err.Error(), "CRC") {
		t.Errorf("err = %v, want a CRC mismatch", err)
	}
}

// TestKeyMismatchQuarantined plants a valid entry under another key's
// file name (digest collision / hand-copied store): served as a miss, not
// as wrong numbers.
func TestKeyMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	a := sampleEntry()
	if err := s.Put(a); err != nil {
		t.Fatal(err)
	}
	b := a.Key
	b.Benchmark = "compress"
	data, _ := os.ReadFile(entryPath(t, dir))
	if err := os.WriteFile(filepath.Join(dir, b.FileName()), data, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := s.Get(b)
	if e != nil || err == nil {
		t.Fatalf("mismatched entry Get = (%v, %v), want quarantine error", e, err)
	}
	// The original key is untouched.
	if e, err := s.Get(a.Key); e == nil || err != nil {
		t.Fatalf("original key Get = (%v, %v)", e, err)
	}
}

// TestKeyStability pins the content address: the same key must map to the
// same file name across runs, processes, and machines — renaming the
// digest scheme invalidates every deployed store, so it must be
// deliberate (bump FormatVersion).
func TestKeyStability(t *testing.T) {
	k := resultstore.Key{ConfigHash: "cafebabe00112233", Benchmark: "gcc", Mode: resultstore.ModeDetailed}
	const want = "gcc-detailed-aa1bd417651b81e8.tcresult"
	if got := k.FileName(); got != want {
		t.Errorf("FileName() = %q, want pinned %q (a deliberate format change must bump FormatVersion)", got, want)
	}
	k2 := resultstore.Key{ConfigHash: "CAFEBABE00112233", Benchmark: "gcc", Mode: resultstore.ModeDetailed}
	if k2.FileName() == k.FileName() {
		t.Error("distinct keys share a file name")
	}
	sane := resultstore.Key{ConfigHash: "x", Benchmark: "Name With/Spaces", Mode: resultstore.ModeReplay}
	name := sane.FileName()
	if strings.ContainsAny(name, " /\\") || name != strings.ToLower(name) {
		t.Errorf("sanitized file name %q", name)
	}
}

// TestConcurrentCrossProcessReuse hammers one directory through several
// independent Store handles (the multi-process shape): concurrent writers
// re-install entries while readers load them. Every successful Get must
// return a complete, CRC-valid entry — atomic installs mean no reader
// ever sees a partial file.
func TestConcurrentCrossProcessReuse(t *testing.T) {
	dir := t.TempDir()
	keys := make([]*resultstore.Entry, 4)
	for i := range keys {
		e := sampleEntry()
		e.Key.ConfigHash = strings.Repeat("ab", 4) + string(rune('a'+i))
		e.Run.Retired = uint64(1000 * (i + 1))
		keys[i] = e
	}
	seed := openStore(t, dir)
	for _, e := range keys {
		if err := seed.Put(e); err != nil {
			t.Fatal(err)
		}
	}

	const handles, iters = 4, 50
	var wg sync.WaitGroup
	for h := 0; h < handles; h++ {
		store := openStore(t, dir) // independent handle, like another process
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e := keys[(h+i)%len(keys)]
				if i%3 == 0 {
					if err := store.Put(e); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
					continue
				}
				got, err := store.Get(e.Key)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if got == nil || got.Run.Retired != e.Run.Retired {
					t.Errorf("Get returned %+v, want retired=%d", got, e.Run.Retired)
					return
				}
			}
		}(h)
	}
	wg.Wait()
	if n, _ := openStore(t, dir).Len(); n != len(keys) {
		t.Errorf("store holds %d entries, want %d", n, len(keys))
	}
}
