// Package resultstore is the persistent, content-addressed result cache
// behind tcbench -store: one file per simulated point, keyed by the
// full configuration hash (stats.Meta.ConfigHash — budgets and sampling
// schedule included), the benchmark name, the execution mode, and the
// store format version. A point simulated by any process is thereafter
// served from disk by every process and user that asks for the identical
// point, so repeated sweeps cost zero simulation (journal provenance
// "store"; see DESIGN.md §11 for the keying and fidelity contract).
//
// Durability: entries are installed atomically (a temporary in the
// store directory, synced and renamed into place) and carry a CRC-32 of
// their payload.
// A truncated, corrupt, or mismatched entry is never fatal: Get
// quarantines the file (renamed aside with a ".quarantined" suffix for
// post-mortem) and reports a miss, so the point is simply re-simulated
// and re-stored.
//
// A process killed mid-install can leave a "<entry>.tcresult.tmp*"
// temporary behind. Nothing reads one: Get opens exact entry names and
// Len counts only the ".tcresult" suffix. Open does not sweep them,
// because a concurrent process sharing the directory may own one; delete
// them only when no process is using the store.
package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"tracecache/internal/stats"
)

// FormatVersion is the on-disk entry format version. It is part of the
// content address, so a format change simply misses every old entry
// instead of misreading it. Version 2: a fast-forward key's result comes
// from a prefix warmed by the point's own simulator, no longer from a
// cold shared checkpoint. Version 3: a replay key's result is a
// full-budget replay of a functionally recorded stream.
const FormatVersion = 3

// Execution modes a key can record. Results of different modes are
// different fidelity classes (DESIGN.md §11): a detailed measurement, a
// front-end-only replay (cycle-domain statistics undefined), and a
// sampled interval estimate are never each other's cache hits.
const (
	ModeDetailed = "detailed"
	ModeReplay   = "replay"
	ModeSampled  = "sampled"
)

// magic is the first token of every entry file.
const magic = "tcresult"

// quarantineSuffix marks entries set aside by Get after a failed load.
const quarantineSuffix = ".quarantined"

// Key is the content address of one stored result.
type Key struct {
	// ConfigHash is the full machine-configuration digest (sim.Config.Hash,
	// recorded as stats.Meta.ConfigHash), which covers every simulated
	// parameter including the run budgets and the sampling schedule.
	ConfigHash string `json:"configHash"`
	// Benchmark is the workload name.
	Benchmark string `json:"benchmark"`
	// Mode is the execution mode: ModeDetailed, ModeReplay or ModeSampled.
	Mode string `json:"mode"`
}

// Validate reports key shape errors.
func (k Key) Validate() error {
	if k.ConfigHash == "" || k.Benchmark == "" {
		return fmt.Errorf("resultstore: incomplete key %+v", k)
	}
	switch k.Mode {
	case ModeDetailed, ModeReplay, ModeSampled:
		return nil
	}
	return fmt.Errorf("resultstore: unknown mode %q", k.Mode)
}

// digest folds the key and the format version into the address hash.
func (k Key) digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|%s|%s|%s", FormatVersion, k.ConfigHash, k.Benchmark, k.Mode)
	return h.Sum64()
}

// FileName is the content-addressed file name of the key's entry: a
// sanitized benchmark prefix for human browsing, the mode, and the
// digest. It is a pure function of the key and the format version, so
// the same point maps to the same file across processes and machines.
func (k Key) FileName() string {
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		}
		return '-'
	}, k.Benchmark)
	if name == "" {
		name = "point"
	}
	return fmt.Sprintf("%s-%s-%016x.tcresult", name, k.Mode, k.digest())
}

// Entry is one stored result: the key it was stored under (verified on
// load, so a digest collision reads as a miss, not as wrong numbers),
// the display configuration name, and the result payload — a full
// stats.Run, plus the interval estimates for sampled entries. Meta
// travels inside Run/Sampled verbatim, describing the run that
// originally produced the numbers.
type Entry struct {
	Version int    `json:"version"`
	Key     Key    `json:"key"`
	Config  string `json:"config,omitempty"`

	Run     *stats.Run     `json:"run,omitempty"`
	Sampled *stats.Sampled `json:"sampled,omitempty"`
}

// Store is an on-disk result cache rooted at one directory. It is safe
// for concurrent use by any number of goroutines and processes: reads
// see either a complete entry or none (atomic installs), and concurrent
// writers of the same key install identical content.
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// encode renders an entry file: a one-line header carrying the magic,
// the format version and the payload CRC, then the JSON payload. It
// stamps the version on a copy, so the caller's entry stays unchanged.
func encode(e *Entry) ([]byte, error) {
	c := *e
	c.Version = FormatVersion
	payload, err := json.Marshal(&c)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	head := fmt.Sprintf("%s %d %08x\n", magic, FormatVersion, crc32.ChecksumIEEE(payload))
	out := make([]byte, 0, len(head)+len(payload)+1)
	out = append(out, head...)
	out = append(out, payload...)
	out = append(out, '\n')
	return out, nil
}

// decode parses and verifies an entry file against the key it was looked
// up under. Every failure is returned as an error; the caller decides
// whether to quarantine.
func decode(data []byte, want Key) (*Entry, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("truncated header")
	}
	var version int
	var crc uint32
	var gotMagic string
	if _, err := fmt.Sscanf(string(data[:nl]), "%s %d %08x", &gotMagic, &version, &crc); err != nil || gotMagic != magic {
		return nil, fmt.Errorf("bad header %q", string(data[:nl]))
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("format version %d, want %d", version, FormatVersion)
	}
	payload := bytes.TrimSuffix(data[nl+1:], []byte("\n"))
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("payload CRC %08x, want %08x", got, crc)
	}
	var e Entry
	if err := json.Unmarshal(payload, &e); err != nil {
		return nil, fmt.Errorf("payload: %w", err)
	}
	if e.Key != want {
		return nil, fmt.Errorf("entry key %+v, want %+v (digest collision or stale store)", e.Key, want)
	}
	if e.Run == nil {
		return nil, fmt.Errorf("entry holds no result")
	}
	return &e, nil
}

// Get loads the entry stored under key. A missing file is a plain miss
// (nil, nil). A file that fails verification — truncated, corrupt CRC,
// undecodable payload, version or key mismatch — is quarantined (renamed
// aside, best-effort) and reported as a miss with a non-nil error
// describing what was found; the caller can log it and re-simulate.
func (s *Store) Get(key Key) (*Entry, error) {
	if err := key.Validate(); err != nil {
		return nil, err
	}
	path := filepath.Join(s.dir, key.FileName())
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	e, derr := decode(data, key)
	if derr != nil {
		s.quarantine(path)
		return nil, fmt.Errorf("resultstore: %s: quarantined: %w", filepath.Base(path), derr)
	}
	return e, nil
}

// quarantine sets a failed entry aside so it stops shadowing the key but
// stays inspectable. Best-effort: on rename failure it falls back to
// removal, and a failure of that too leaves the file for the next Get to
// retry.
func (s *Store) quarantine(path string) {
	if err := os.Rename(path, path+quarantineSuffix); err != nil {
		os.Remove(path)
	}
}

// Put persists an entry under its key, atomically, overwriting any
// previous entry for the key: it writes a "<entry>.tmp*" temporary in the
// store directory, syncs it and renames it into place, so a reader sees
// the previous entry or the new one, never part of one. On any error the
// temporary is removed and the previous entry stays. The entry must
// carry a Run (Sampled is optional and accompanies ModeSampled entries).
func (s *Store) Put(e *Entry) error {
	if err := e.Key.Validate(); err != nil {
		return err
	}
	if e.Run == nil {
		return fmt.Errorf("resultstore: entry without a result")
	}
	data, err := encode(e)
	if err != nil {
		return err
	}
	name := e.Key.FileName()
	tmp, err := os.CreateTemp(s.dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	// fail removes the temporary; closing it a second time is harmless.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		return fail(err)
	}
	return nil
}

// Len counts the live (non-quarantined, non-temporary) entries on disk.
func (s *Store) Len() (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("resultstore: %w", err)
	}
	n := 0
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".tcresult") {
			n++
		}
	}
	return n, nil
}
