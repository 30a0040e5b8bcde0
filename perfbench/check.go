package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"tracecache/internal/stats"
)

// defaultSeed is the program seed whose expected data is stored under
// expected/: at this seed every program is the paper benchmark's own.
// Every benchmark run uses it unless -program-seed says otherwise.
const defaultSeed = 0

//go:embed expected/*.json
var expectedFS embed.FS

// expected is one workload's stored expected data for the default
// program seed.
type expected struct {
	// Params names the budgets the data was made for; a mismatch means
	// the constants changed without a -regen.
	Params string `json:"params"`
	// Text is the digest of the rendered experiment text (suite only).
	Text string `json:"text,omitempty"`
	// Points maps each point key to the digest of its result.
	Points map[string]string `json:"points"`
	// Truth holds fully detailed runs the fast modes are compared with.
	Truth map[string]truthRun `json:"truth,omitempty"`
}

// truthRun is a fully detailed run plus its trace cache probe counters.
type truthRun struct {
	Run       stats.Run `json:"run"`
	TCLookups uint64    `json:"tcLookups"`
	TCHits    uint64    `json:"tcHits"`
}

func loadExpected(name, params string) (*expected, error) {
	data, err := expectedFS.ReadFile("expected/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("expected data for %s: %w", name, err)
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("expected data for %s: %w", name, err)
	}
	if e.Params != params {
		return nil, fmt.Errorf("expected data for %s was made for %q, the benchmark runs %q (rerun with -regen)",
			name, e.Params, params)
	}
	return &e, nil
}

func writeExpected(dir, name string, e *expected) error {
	data, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644)
}

// digest hashes a value's JSON encoding.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// runDigest digests every counter of a run; Meta (wall time, timestamps)
// is excluded because it differs between identical simulations.
func runDigest(r *stats.Run) string {
	c := *r
	c.Meta = nil
	return digest(c)
}

// sampledDigest digests a sampled run's windows and estimates, Meta
// excluded.
func sampledDigest(s *stats.Sampled) string {
	c := *s
	c.Meta = nil
	return digest(c)
}

// digestGate compares each point's digest with the expected one. With
// stored expected data (fixed) an unknown key fails; otherwise the first
// digest seen for a key becomes the expectation, so every later
// repetition must reproduce a result already verified or recorded.
type digestGate struct {
	mu    sync.Mutex
	want  map[string]string
	fixed bool
}

func newGate(stored map[string]string) *digestGate {
	g := &digestGate{want: make(map[string]string), fixed: stored != nil}
	for k, v := range stored {
		g.want[k] = v
	}
	return g
}

func (g *digestGate) check(key, got string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.want[key]
	switch {
	case !ok && g.fixed:
		return fmt.Errorf("%s: no expected digest", key)
	case !ok:
		g.want[key] = got
		return nil
	case w != got:
		return fmt.Errorf("%s: digest %s, want %s", key, got, w)
	}
	return nil
}

// ledger counts operations — simulated points and checks — and the ones
// that failed: an error, a digest mismatch or a fidelity-contract
// violation each count once.
type ledger struct {
	mu                sync.Mutex
	attempted, failed int
	first             []string
}

func (l *ledger) op(what string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.first) < 5 {
			l.first = append(l.first, fmt.Sprintf("%s: %v", what, err))
		}
	}
}
