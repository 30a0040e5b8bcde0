package atomicfile_test

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"tracecache/internal/atomicfile"
)

func TestWriteFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	want := []byte("hello atomic world")
	if err := atomicfile.WriteFile(path, want, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("content = %q, want %q", got, want)
	}
	// No stray temporaries.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want 1 (no stray temp files)", len(ents))
	}
}

func TestWriteFileOverwrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	if err := atomicfile.WriteFile(path, []byte("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := atomicfile.WriteFile(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "second" {
		t.Fatalf("content = %q, want %q", got, "second")
	}
}

// TestRenameEXDEVFallback injects EXDEV on the first (cross-directory)
// rename and verifies the copy+sync+rename fallback installs the content
// and removes the source — a store directory on a mounted volume.
func TestRenameEXDEVFallback(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src := filepath.Join(srcDir, "payload.tmp")
	dst := filepath.Join(dstDir, "payload.bin")
	if err := os.WriteFile(src, []byte("cross-device payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	restore := atomicfile.SetRename(func(old, new string) error {
		// The first rename (src in a different dir) reports EXDEV, the
		// same-directory installing rename of the fallback succeeds.
		if filepath.Dir(old) != filepath.Dir(new) {
			return &os.LinkError{Op: "rename", Old: old, New: new, Err: syscall.EXDEV}
		}
		return os.Rename(old, new)
	})
	defer restore()

	if err := atomicfile.Rename(src, dst); err != nil {
		t.Fatalf("Rename with EXDEV: %v", err)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatalf("destination missing: %v", err)
	}
	if string(got) != "cross-device payload" {
		t.Fatalf("content = %q", got)
	}
	if _, err := os.Stat(src); !os.IsNotExist(err) {
		t.Fatalf("source still present after fallback (err=%v)", err)
	}
	ents, _ := os.ReadDir(dstDir)
	if len(ents) != 1 {
		t.Fatalf("destination dir holds %d entries, want 1", len(ents))
	}
}

// TestWriteFileEXDEV drives WriteFile end to end under an always-EXDEV
// first rename, as overlayfs can produce even for same-directory paths
// when the destination exists on a lower layer.
func TestWriteFileEXDEV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.entry")
	if err := os.WriteFile(path, []byte("lower-layer original"), 0o644); err != nil {
		t.Fatal(err)
	}
	fired := false
	restore := atomicfile.SetRename(func(old, new string) error {
		if !fired {
			fired = true
			return &os.LinkError{Op: "rename", Old: old, New: new, Err: syscall.EXDEV}
		}
		return os.Rename(old, new)
	})
	defer restore()
	if err := atomicfile.WriteFile(path, []byte("replacement"), 0o644); err != nil {
		t.Fatalf("WriteFile under EXDEV: %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "replacement" {
		t.Fatalf("content = %q", got)
	}
	if !fired {
		t.Fatal("injected EXDEV never fired")
	}
}

func TestRenameOtherErrorPropagates(t *testing.T) {
	restore := atomicfile.SetRename(func(old, new string) error {
		return &os.LinkError{Op: "rename", Old: old, New: new, Err: syscall.EACCES}
	})
	defer restore()
	dir := t.TempDir()
	src := filepath.Join(dir, "a")
	if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := atomicfile.Rename(src, filepath.Join(dir, "b"))
	if err == nil || !strings.Contains(err.Error(), "permission denied") {
		t.Fatalf("err = %v, want wrapped EACCES", err)
	}
}
