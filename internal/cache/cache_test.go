package cache

import (
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{Name: "t", SizeBytes: 256, LineBytes: 32, Assoc: 2}
}

func TestConfigGeometry(t *testing.T) {
	c := small()
	if c.Lines() != 8 || c.Sets() != 4 {
		t.Errorf("lines=%d sets=%d", c.Lines(), c.Sets())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	bad := []Config{
		{Name: "zero"},
		{Name: "mod", SizeBytes: 100, LineBytes: 32, Assoc: 2},
		{Name: "assoc", SizeBytes: 256, LineBytes: 32, Assoc: 3},
		{Name: "pow2", SizeBytes: 192, LineBytes: 32, Assoc: 2},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted: %+v", c.Name, c)
		}
	}
	if _, err := New(Config{Name: "line", SizeBytes: 240, LineBytes: 30, Assoc: 2}); err == nil {
		t.Error("non-power-of-two line size accepted")
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := MustNew(small())
	if c.Access(0x100) {
		t.Error("cold access hit")
	}
	if !c.Access(0x100) {
		t.Error("second access missed")
	}
	if !c.Access(0x11f) {
		t.Error("same-line access missed")
	}
	if c.Access(0x120) {
		t.Error("next line hit cold")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(small()) // 4 sets, 2 ways, 32B lines: set stride = 128B
	a, b, d := uint64(0), uint64(128), uint64(256)
	c.Access(a) // miss, fills way 0
	c.Access(b) // miss, fills way 1
	c.Access(a) // hit: b is now LRU
	c.Access(d) // miss, evicts b
	if !c.Probe(a) {
		t.Error("a evicted; should have stayed (MRU)")
	}
	if c.Probe(b) {
		t.Error("b not evicted; LRU broken")
	}
	if !c.Probe(d) {
		t.Error("d not resident after fill")
	}
}

func TestProbeHasNoSideEffects(t *testing.T) {
	c := MustNew(small())
	if c.Probe(0x40) {
		t.Error("probe hit empty cache")
	}
	st := c.Stats()
	if st.Accesses != 0 {
		t.Errorf("probe counted as access: %+v", st)
	}
	if c.Access(0x40) {
		t.Error("probe must not allocate")
	}
}

func TestReset(t *testing.T) {
	c := MustNew(small())
	c.Access(0x40)
	c.Reset()
	if c.Probe(0x40) {
		t.Error("line survived reset")
	}
	if st := c.Stats(); st.Accesses != 0 || st.Misses != 0 {
		t.Errorf("stats survived reset: %+v", st)
	}
}

// TestLineAddr: an access fills the whole line-aligned block around its
// address, and no byte outside it.
func TestLineAddr(t *testing.T) {
	c := MustNew(small())
	c.Access(0x15)
	if !c.Probe(0) || !c.Probe(0x1f) || c.Probe(0x20) {
		t.Error("access to 0x15 did not fill exactly the line [0, 0x20)")
	}
	if c.LineBytes() != 32 {
		t.Errorf("LineBytes = %d", c.LineBytes())
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty miss rate should be 0")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("miss rate = %v", s.MissRate())
	}
}

// Property: a cache never reports more misses than accesses, and an access
// immediately repeated always hits.
func TestAccessRepeatProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := MustNew(Config{Name: "p", SizeBytes: 1024, LineBytes: 64, Assoc: 4})
		for _, a := range addrs {
			c.Access(uint64(a))
			if !c.Access(uint64(a)) {
				return false
			}
		}
		st := c.Stats()
		return st.Misses <= st.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the working set fits, so after a warmup pass everything hits.
func TestWorkingSetProperty(t *testing.T) {
	c := MustNew(Config{Name: "w", SizeBytes: 4096, LineBytes: 64, Assoc: 4})
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < 4096; addr += 64 {
			hit := c.Access(addr)
			if pass == 1 && !hit {
				t.Fatalf("addr %#x missed on warm pass", addr)
			}
		}
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := &Hierarchy{
		L1I: MustNew(Config{Name: "l1i", SizeBytes: 4096, LineBytes: 64, Assoc: 4}),
		L1D: MustNew(Config{Name: "l1d", SizeBytes: 4096, LineBytes: 64, Assoc: 4}),
		L2:  MustNew(Config{Name: "l2", SizeBytes: 1 << 20, LineBytes: 64, Assoc: 8}),
	}
	// Cold: miss everywhere -> L2 + memory.
	if lat := h.FetchInst(0); lat != L2Latency+MemLatency {
		t.Errorf("cold fetch latency = %d", lat)
	}
	// Warm L1.
	if lat := h.FetchInst(0); lat != 0 {
		t.Errorf("warm fetch latency = %d", lat)
	}
	// Data address in L2 only (evict from a tiny L1 by conflict): first
	// access cold, second through L2 after L1 eviction.
	if lat := h.AccessData(1 << 16); lat != L2Latency+MemLatency {
		t.Errorf("cold data latency = %d", lat)
	}
	// Evict from L1D (4 ways per set): access 5 conflicting lines.
	for i := 1; i <= 5; i++ {
		h.AccessData(uint64(1<<16 + i*4096))
	}
	if lat := h.AccessData(1 << 16); lat != L2Latency {
		t.Errorf("L2-resident latency = %d, want %d", lat, L2Latency)
	}
}

func TestHierarchyNilL2(t *testing.T) {
	h := &Hierarchy{L1I: MustNew(Config{Name: "l1i", SizeBytes: 4096, LineBytes: 64, Assoc: 4})}
	if lat := h.FetchInst(0); lat != L2Latency {
		t.Errorf("nil L2 miss latency = %d, want %d", lat, L2Latency)
	}
}

func TestProbeInst(t *testing.T) {
	h := &Hierarchy{L1I: MustNew(Config{Name: "l1i", SizeBytes: 4096, LineBytes: 64, Assoc: 4})}
	if h.ProbeInst(0x40) {
		t.Error("cold probe hit")
	}
	h.FetchInst(0x40)
	if !h.ProbeInst(0x40) {
		t.Error("warm probe missed")
	}
}

// MustNew is a test helper that builds a cache from a known-good config.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// TestNewRejectsBadGeometry pins the error path that replaced the
// panicking constructor, including the line-size power-of-two rule that
// Validate now covers on New's behalf.
func TestNewRejectsBadGeometry(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Name: "neg", SizeBytes: -1, LineBytes: 32, Assoc: 2},
		{Name: "line", SizeBytes: 1024, LineBytes: 48, Assoc: 2}, // not a power of two
		{Name: "mult", SizeBytes: 1000, LineBytes: 64, Assoc: 2},
		{Name: "assoc", SizeBytes: 1024, LineBytes: 64, Assoc: 3},
		{Name: "sets", SizeBytes: 1536, LineBytes: 64, Assoc: 2}, // 12 sets
	} {
		if c, err := New(cfg); err == nil || c != nil {
			t.Errorf("New(%+v) = %v, %v; want nil, error", cfg, c, err)
		}
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a geometry New rejects", cfg)
		}
	}
}
