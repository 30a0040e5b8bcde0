// Package sim is the top-level cycle-level simulator: it ties a fetch
// engine (trace cache or instruction cache) to the out-of-order execution
// core, executes instruction semantics speculatively at dispatch (wrong
// path included), recovers from branch mispredictions, misfetches and
// promoted-branch faults, feeds the fill unit from the retired stream, and
// collects every statistic the paper reports.
package sim

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"tracecache/internal/cache"
	"tracecache/internal/core"
	"tracecache/internal/engine"
)

// FrontEnd selects the fetch mechanism.
type FrontEnd uint8

// Front ends.
const (
	// FrontICache is the reference configuration: a large dual-ported
	// instruction cache with a hybrid predictor, one fetch block/cycle.
	FrontICache FrontEnd = iota
	// FrontTrace is the trace cache fetch mechanism.
	FrontTrace
)

// Config parameterises one simulation.
type Config struct {
	Name  string
	Front FrontEnd

	// Trace-cache front end.
	TC       core.TraceCacheConfig
	Fill     core.FillConfig
	SplitMBP bool // use the restructured three-table predictor (Section 4)
	// DisableInactiveIssue reverts the trace cache to discarding blocks
	// past the predicted path at fetch (the baseline includes inactive
	// issue per Section 3; this is the ablation).
	DisableInactiveIssue bool

	// SingleHybrid sequences the trace cache with the aggressive hybrid
	// single-branch predictor (one prediction per cycle, indexed by branch
	// PC) — the design Section 4 suggests for an 8-wide machine once
	// promotion has collapsed prediction-bandwidth demand.
	SingleHybrid bool

	// FetchWidth is the fetch (and trace segment read) width; 0 means the
	// paper's 16.
	FetchWidth int

	// Predictor geometry.
	TreeEntries     int    // gshare tree entries (paper: 16K)
	SplitSizes      [3]int // restructured tables (paper: 64K/16K/8K counters)
	IndirectEntries int

	// Cache geometry.
	ICacheBytes int // supporting icache (4KB) or reference icache (128KB)
	L1DBytes    int
	L2Bytes     int
	LineBytes   int

	// Core.
	Engine      engine.Config
	IssueWidth  int
	RetireWidth int

	// FaultPenalty is the extra redirect penalty of a promoted-branch
	// fault, modelling the roll-back to the previous checkpoint and
	// re-execution of the block prefix.
	FaultPenalty int

	// Run bounds. FastForwardInsts committed instructions are executed
	// functionally first (no cycle-level detail, see Simulator.Run), then
	// WarmupInsts retire under full detail before statistics collection
	// starts; MaxInsts are then measured.
	FastForwardInsts uint64
	WarmupInsts      uint64
	MaxInsts         uint64
	MaxCycles        uint64

	// Sampling, when non-zero, selects the SMARTS-style sampled execution
	// mode (internal/sampling): MaxInsts is interpreted as the total
	// committed-stream budget, covered by alternating functional
	// fast-forward gaps and detailed {warmup, measurement} windows on the
	// Sampling schedule, with statistics aggregated into interval
	// estimates. WarmupInsts and FastForwardInsts keep their meaning for
	// the prefix before the first window. Included in Hash (unlike Check)
	// because a sampled result is an estimate, not the same measurement.
	Sampling SamplingParams

	// Check enables the self-verification layer (internal/check): a
	// functional reference model runs in lockstep with the detailed
	// engine, structural invariants are asserted on every segment and
	// fetch bundle, and conservation identities are verified at the end
	// of the run. No simulated statistic changes; violations are reported
	// via Simulator.Checker. Excluded from Hash so a checked run
	// is attributable to the same machine as its unchecked twin.
	Check bool
}

// SamplingParams is the schedule of the sampled execution mode. The zero
// value disables sampling.
type SamplingParams struct {
	// WindowInsts is the length of each detailed measurement window;
	// PeriodInsts is the committed-stream distance between successive
	// window starts (so PeriodInsts − WarmupInsts − WindowInsts
	// instructions per period are fast-forwarded functionally);
	// WarmupInsts is the detailed warmup preceding each window, whose
	// statistics are discarded.
	WindowInsts uint64
	PeriodInsts uint64
	WarmupInsts uint64
	// Seed drives the deterministic per-period placement jitter of the
	// measurement window inside its period. Two runs with equal seeds
	// produce byte-identical results; differing seeds produce differing
	// window schedules.
	Seed uint64
}

// Enabled reports whether the sampled execution mode is selected.
func (p SamplingParams) Enabled() bool { return p != SamplingParams{} }

// Validate reports schedule errors.
func (p SamplingParams) Validate() error {
	if !p.Enabled() {
		return nil
	}
	if p.WindowInsts == 0 {
		return fmt.Errorf("sampling: zero window")
	}
	if p.PeriodInsts < p.WindowInsts+p.WarmupInsts {
		return fmt.Errorf("sampling: period %d shorter than warmup %d + window %d",
			p.PeriodInsts, p.WarmupInsts, p.WindowInsts)
	}
	return nil
}

// ParseSamplingSpec parses the CLI schedule syntax shared by tcsim and
// tcbench: "window:period:warmup" with an optional ":seed" (default 1).
// The parsed schedule is validated.
func ParseSamplingSpec(spec string) (SamplingParams, error) {
	var p SamplingParams
	parts := strings.Split(spec, ":")
	if len(parts) != 3 && len(parts) != 4 {
		return p, fmt.Errorf("sampling spec wants window:period:warmup[:seed], got %q", spec)
	}
	fields := []*uint64{&p.WindowInsts, &p.PeriodInsts, &p.WarmupInsts, &p.Seed}
	p.Seed = 1
	for i, part := range parts {
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return p, fmt.Errorf("sampling spec field %d (%q): %v", i+1, part, err)
		}
		*fields[i] = v
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// DefaultConfig returns the paper's baseline trace-cache machine
// (Section 3): 2K-entry 4-way trace cache, 4KB supporting icache, 16K-entry
// gshare tree predictor, 64KB L1D, 1MB L2, 16 universal FUs with 64-entry
// node tables, conservative memory scheduling, inactive issue, atomic
// block treatment, no promotion.
func DefaultConfig() Config {
	return Config{
		Name:            "baseline",
		Front:           FrontTrace,
		TC:              core.TraceCacheConfig{Entries: 2048, Assoc: 4},
		Fill:            core.DefaultFillConfig(core.PackAtomic, 0),
		TreeEntries:     1 << 14,
		SplitSizes:      [3]int{1 << 16, 1 << 14, 1 << 13},
		IndirectEntries: 1 << 10,
		ICacheBytes:     4 << 10,
		L1DBytes:        64 << 10,
		L2Bytes:         1 << 20,
		LineBytes:       64,
		Engine:          engine.DefaultConfig(),
		IssueWidth:      16,
		RetireWidth:     16,
		FaultPenalty:    2,
		MaxInsts:        1 << 20,
		MaxCycles:       1 << 62,
	}
}

// ICacheConfig returns the reference instruction-cache-only machine: a
// 128KB dual-ported icache with the hybrid predictor.
func ICacheConfig() Config {
	c := DefaultConfig()
	c.Name = "icache"
	c.Front = FrontICache
	c.ICacheBytes = 128 << 10
	return c
}

// Hash returns a short stable digest of the configuration, recorded in
// run metadata so results can be traced back to the exact machine that
// produced them. Two configs hash equally iff every parameter matches
// (up to the fidelity of the %+v rendering).
func (c Config) Hash() string {
	// Check verifies a run without changing it, so a checked config hashes
	// identically to its unchecked twin (c is a copy; zeroing is local).
	c.Check = false
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", c)
	return fmt.Sprintf("%016x", h.Sum64())
}

// clearFrontEnd zeroes every front-end axis of a copy of the
// configuration — the fetch mechanism selector, trace cache and fill/
// packing/promotion policy, the branch and indirect predictors, the
// supporting icache, the fetch width and the inactive-issue ablation —
// along with the display name and the Check toggle. What remains (core,
// data-side memory hierarchy, penalties, budgets) is exactly what a
// front-end-only replay cannot vary.
func clearFrontEnd(c Config) Config {
	c.Name = ""
	c.Front = 0
	c.TC = core.TraceCacheConfig{}
	c.Fill = core.FillConfig{}
	c.SplitMBP = false
	c.DisableInactiveIssue = false
	c.SingleHybrid = false
	c.FetchWidth = 0
	c.TreeEntries = 0
	c.SplitSizes = [3]int{}
	c.IndirectEntries = 0
	c.ICacheBytes = 0
	c.Check = false
	return c
}

// CoreHash digests the configuration with every front-end axis cleared
// (see clearFrontEnd). Recordings carry the recording config's CoreHash
// so replay eligibility can assert a sweep point differs from the
// recording only in axes the replay actually exercises.
func (c Config) CoreHash() string { return clearFrontEnd(c).Hash() }

// FrontEndEquivalent reports whether two configurations differ only in
// front-end axes (and the display name). A recorded retired stream from
// one is a valid replay input for the other: the committed path depends
// only on the program and the instruction budget, and every non-front-end
// parameter that could make a detailed comparison unfair is equal.
func FrontEndEquivalent(a, b Config) bool { return a.CoreHash() == b.CoreHash() }

// cacheConfigs returns the memory-hierarchy geometries the configuration
// implies; New builds them and Validate vets them.
func (c Config) cacheConfigs() [3]cache.Config {
	return [3]cache.Config{
		{Name: "l1i", SizeBytes: c.ICacheBytes, LineBytes: c.LineBytes, Assoc: 4},
		{Name: "l1d", SizeBytes: c.L1DBytes, LineBytes: c.LineBytes, Assoc: 4},
		{Name: "l2", SizeBytes: c.L2Bytes, LineBytes: c.LineBytes, Assoc: 8},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.IssueWidth <= 0 || c.RetireWidth <= 0 {
		return fmt.Errorf("sim %q: non-positive widths", c.Name)
	}
	if c.Front == FrontTrace {
		if err := c.TC.Validate(); err != nil {
			return err
		}
	}
	if c.Engine.FUs <= 0 || c.Engine.RSPerFU <= 0 {
		return fmt.Errorf("sim %q: bad engine config", c.Name)
	}
	if c.MaxInsts == 0 {
		return fmt.Errorf("sim %q: zero instruction budget", c.Name)
	}
	for _, cc := range c.cacheConfigs() {
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("sim %q: %w", c.Name, err)
		}
	}
	if err := c.Sampling.Validate(); err != nil {
		return fmt.Errorf("sim %q: %w", c.Name, err)
	}
	return nil
}
