// Package cache models set-associative caches with LRU replacement and the
// two-level memory hierarchy of the paper's experimental machine: small L1
// caches backed by a 1MB unified L2 with 6-cycle latency, backed by memory
// with a minimum 50-cycle latency. Only tags are modelled; data values come
// from the architectural simulator.
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Assoc     int
}

// Lines returns the total number of lines in the cache.
func (c Config) Lines() int { return c.SizeBytes / c.LineBytes }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Lines() / c.Assoc }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry %+v", c.Name, c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache %q: size %d not a multiple of line %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	if c.Lines()%c.Assoc != 0 {
		return fmt.Errorf("cache %q: lines %d not a multiple of assoc %d", c.Name, c.Lines(), c.Assoc)
	}
	if s := c.Sets(); s&(s-1) != 0 {
		return fmt.Errorf("cache %q: sets %d not a power of two", c.Name, s)
	}
	return nil
}

// Stats counts cache activity.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type way struct {
	tag   uint64
	valid bool
	lru   uint64
}

// Cache is a set-associative, LRU, allocate-on-miss tag array.
type Cache struct {
	cfg       Config
	sets      [][]way
	setMask   uint64
	lineShift uint
	clock     uint64
	stats     Stats
}

// New builds a cache from the configuration, which must be valid.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg}
	nsets := cfg.Sets()
	c.setMask = uint64(nsets - 1)
	for sh := uint(0); ; sh++ {
		if 1<<sh == cfg.LineBytes {
			c.lineShift = sh
			break
		}
		if 1<<sh > cfg.LineBytes {
			return nil, fmt.Errorf("cache %q: line size %d not a power of two", cfg.Name, cfg.LineBytes)
		}
	}
	backing := make([]way, nsets*cfg.Assoc)
	c.sets = make([][]way, nsets)
	for i := range c.sets {
		c.sets[i], backing = backing[:cfg.Assoc], backing[cfg.Assoc:]
	}
	return c, nil
}

// Renew returns a cache for cfg built in old's tag array, cleared by
// Reset to exactly what New builds, when old was built for cfg, and New's
// cache otherwise. old may be nil; a renewed old must not be used again.
func Renew(old *Cache, cfg Config) (*Cache, error) {
	if old == nil || old.cfg != cfg {
		return New(cfg)
	}
	old.Reset()
	return old, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns activity counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) locate(addr uint64) (set []way, tag uint64) {
	line := addr >> c.lineShift
	return c.sets[line&c.setMask], line >> 0
}

// Access looks up addr, allocating the line on a miss, and reports whether
// it hit.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	c.stats.Accesses++
	set, tag := c.locate(addr)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.clock
			return true
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	c.stats.Misses++
	set[victim] = way{tag: tag, valid: true, lru: c.clock}
	return false
}

// Probe reports whether addr is resident without touching LRU state or
// statistics.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.locate(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// Reset clears contents and statistics, leaving the cache as New built
// it. It is the cache's one clearing routine (Renew uses it).
func (c *Cache) Reset() {
	for _, set := range c.sets {
		clear(set)
	}
	c.clock = 0
	c.stats = Stats{}
}

// Latencies of the lower levels of the hierarchy (Section 3 of the paper).
const (
	L2Latency  = 6
	MemLatency = 50
)

// Hierarchy ties first-level caches to a shared L2 and memory, returning
// access latencies beyond an L1 hit.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
}

// access performs an L1 access and walks the lower levels on a miss,
// returning the additional latency beyond an L1 hit.
func (h *Hierarchy) access(l1 *Cache, addr uint64) int {
	if l1.Access(addr) {
		return 0
	}
	if h.L2 == nil || h.L2.Access(addr) {
		return L2Latency
	}
	return L2Latency + MemLatency
}

// FetchInst models an instruction fetch touching addr; the returned latency
// is 0 on an L1I hit, the L2 latency on an L1I miss, and the memory latency
// on an L2 miss.
func (h *Hierarchy) FetchInst(addr uint64) int { return h.access(h.L1I, addr) }

// AccessData models a data access (load or store commit).
func (h *Hierarchy) AccessData(addr uint64) int { return h.access(h.L1D, addr) }

// ProbeInst reports whether the instruction line is resident in L1I
// without side effects.
func (h *Hierarchy) ProbeInst(addr uint64) bool { return h.L1I.Probe(addr) }
