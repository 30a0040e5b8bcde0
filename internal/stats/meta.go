package stats

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// Result provenance values (Meta.Provenance and journal records).
const (
	// ProvCold marks a result simulated from scratch, fast-forward prefix
	// included.
	ProvCold = "cold"
	// ProvMemoized marks a result shared from a runner's singleflight
	// memo: the request it describes simulated nothing.
	ProvMemoized = "memoized"
	// ProvReplay marks a result produced by the front-end-only replay
	// engine over a recorded retired stream: no execution core ran, and
	// cycle-domain statistics are undefined (see DESIGN.md §9).
	ProvReplay = "replay"
	// ProvSampled marks a result estimated by SMARTS-style statistical
	// sampling: functional fast-forward alternating with short detailed
	// measurement windows, aggregated into interval estimates
	// (see DESIGN.md §10). The headline counters are pooled across
	// windows; they describe the measured subset, not the full stream.
	ProvSampled = "sampled"
	// ProvStore marks a result served from the persistent on-disk result
	// store (internal/resultstore): the request it describes simulated
	// nothing in this process; the numbers are the verbatim output of the
	// run — possibly in another process — that originally populated the
	// entry (see DESIGN.md §11).
	ProvStore = "store"
)

// SamplingMeta records the sampling schedule of a ProvSampled run. It is
// part of Meta (and thereby of every serialized sampled summary and
// journal record), so sampled points are never conflated with detailed
// ones that share a configuration.
type SamplingMeta struct {
	// WindowInsts is the detailed measurement window length; WarmupInsts
	// is the discarded detailed warmup preceding each window; PeriodInsts
	// is the committed-stream distance between window starts.
	WindowInsts uint64 `json:"windowInsts"`
	PeriodInsts uint64 `json:"periodInsts"`
	WarmupInsts uint64 `json:"warmupInsts"`
	// Seed drives the per-period window-placement jitter.
	Seed uint64 `json:"seed"`
	// Windows is the number of measurement windows actually completed.
	Windows int `json:"windows"`
}

// PointLabel names one sweep point in run events, journal reports and
// progress displays: "<config>/<bench>", with the sampling schedule
// appended when s is non-nil, so a sampled estimate is never read as the
// detailed measurement of the same configuration.
func PointLabel(config, bench string, s *SamplingMeta) string {
	k := config + "/" + bench
	if s != nil {
		k += fmt.Sprintf("#sampled-w%d-p%d-u%d-s%d",
			s.WindowInsts, s.PeriodInsts, s.WarmupInsts, s.Seed)
	}
	return k
}

// Meta records the provenance of one run so serialized results (summary
// JSON, time-series files, CI trend data) are self-describing: which
// binary produced them, under which configuration and budgets, and how
// long the simulation took on which toolchain.
type Meta struct {
	// Tool identifies the producing binary (name and build info).
	Tool string `json:"tool,omitempty"`
	// ConfigHash fingerprints the full machine configuration, so results
	// from silently different configurations never compare as equal.
	ConfigHash string `json:"configHash,omitempty"`
	// Seed is the synthetic workload generator seed (0 when unknown).
	Seed int64 `json:"seed,omitempty"`
	// WarmupInsts and MaxInsts are the run bounds.
	WarmupInsts uint64 `json:"warmupInsts"`
	MaxInsts    uint64 `json:"maxInsts"`
	// FastForwardInsts is the functionally executed prefix (0 when the
	// whole run was cycle-detailed).
	FastForwardInsts uint64 `json:"fastForwardInsts,omitempty"`
	// Provenance records how the result was produced: ProvCold (simulated
	// from scratch by this process), ProvReplay, ProvSampled, or — on
	// journal records whose result was shared from a runner's memo rather
	// than simulated for that request — ProvMemoized. The detailed
	// simulator only ever writes ProvCold; the value is a pure function of
	// the run mode, so serialized summaries stay deterministic.
	Provenance string `json:"provenance,omitempty"`
	// WallMillis is the simulation wall time in milliseconds.
	WallMillis float64 `json:"wallMillis"`
	// GoVersion is the runtime that executed the simulation.
	GoVersion string `json:"goVersion,omitempty"`
	// Hostname identifies the producing machine.
	Hostname string `json:"hostname,omitempty"`
	// StartedAt is the run start in RFC 3339 UTC.
	StartedAt string `json:"startedAt,omitempty"`
	// Sampling is the sampling schedule of a ProvSampled run; nil on
	// every other provenance.
	Sampling *SamplingMeta `json:"sampling,omitempty"`
}

// MetaStart reads the wall clock for a run's Meta: at the run's start,
// and again in NewMeta for its wall time. No other code reads the wall
// clock for a run's provenance.
func MetaStart() time.Time {
	//tcvet:ignore determinism wall-clock provenance only: a run's start and wall time for Meta, never simulated state
	return time.Now()
}

// NewMeta returns m with the host provenance of a run that began at start
// (a MetaStart reading): the wall time since then, the Go runtime, the
// hostname and the RFC 3339 start stamp. The caller sets the fields that
// depend on the run mode: configuration hash, budgets, fast-forward count,
// provenance and sampling schedule.
func NewMeta(start time.Time, m Meta) *Meta {
	m.WallMillis = float64(MetaStart().Sub(start).Microseconds()) / 1000
	m.GoVersion = runtime.Version()
	m.Hostname, _ = os.Hostname()
	m.StartedAt = start.UTC().Format(time.RFC3339)
	return &m
}
