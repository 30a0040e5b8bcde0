package resultstore_test

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreEntry writes arbitrary bytes where a key's entry lives. Get
// must never panic, and never serve what it cannot verify: it returns
// either an entry with the requested key and a result, or a miss with an
// error, and then the file is quarantined, so the next Get is a plain
// miss. The seeds are a whole entry as Put writes it, truncations of it
// and a flipped byte.
func FuzzStoreEntry(f *testing.F) {
	e := sampleEntry()
	seedDir := f.TempDir()
	if err := openStore(f, seedDir).Put(e); err != nil {
		f.Fatal(err)
	}
	whole, err := os.ReadFile(filepath.Join(seedDir, e.Key.FileName()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	for _, n := range []int{0, 9, len(whole) / 2, len(whole) - 2, len(whole) - 1} {
		f.Add(whole[:n])
	}
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s := openStore(t, dir)
		if err := os.WriteFile(filepath.Join(dir, e.Key.FileName()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(e.Key)
		if err == nil {
			if got == nil || got.Key != e.Key || got.Run == nil {
				t.Fatalf("Get served %+v for key %+v", got, e.Key)
			}
			return
		}
		if got != nil {
			t.Fatalf("Get returned entry %+v with error %v", got, err)
		}
		if n := quarantined(t, dir); n != 1 {
			t.Fatalf("failed entry left %d quarantined files, want 1 (error %v)", n, err)
		}
		if again, err := s.Get(e.Key); again != nil || err != nil {
			t.Fatalf("Get after quarantine = %+v, %v; want a plain miss", again, err)
		}
	})
}
