package sim

import "tracecache/internal/metrics"

// Metrics is the simulator's fleet-level instrumentation: process-wide
// committed-instruction and cycle counters that a monitoring surface can
// difference over time to derive live aggregate insts/s across every
// simulation feeding them. The counters are atomic, so one Metrics value
// is shared by all simulators of a concurrent sweep.
//
// Attachment follows the internal/obs contract: the simulator holds a
// pointer that is nil by default, each hot-path site costs one nil check
// when detached, and counter flushes are batched (per retirement
// accumulation, one atomic add per metricsFlushPeriod cycles) so the
// enabled path stays cheap too. tcvet's nilsafe analyzer enforces the
// contract: a *Metrics must never be boxed into an interface, or the
// simulator's `s.met != nil` fast-path guard stops meaning "detached".
//
//tc:nilsafe
type Metrics struct {
	// Insts counts committed (retired) instructions on the detailed path,
	// warmup included; functionally fast-forwarded prefixes are excluded.
	Insts *metrics.Counter
	// Cycles counts detailed simulation cycles, warmup included.
	Cycles *metrics.Counter
}

// NewMetrics registers the simulator counter set in the registry.
func NewMetrics(r *metrics.Registry) *Metrics {
	return &Metrics{
		Insts: r.Counter("tracecache_sim_instructions_committed_total",
			"Committed instructions across all simulations (detailed path, warmup included)."),
		Cycles: r.Counter("tracecache_sim_cycles_total",
			"Simulated cycles across all simulations (detailed path, warmup included)."),
	}
}

// metricsFlushPeriod is the cycle period (a power of two) between batched
// counter flushes while metrics are attached.
const metricsFlushPeriod = 4096

// AttachMetrics wires the fleet counters into the simulator. Attach
// before Run; a nil value detaches.
func (s *Simulator) AttachMetrics(m *Metrics) { s.met = m }

// flushMetrics publishes the batched deltas accumulated since the last
// flush. Called on the flush period and at the end of Run, RunDetailed
// and DrainPipeline.
func (s *Simulator) flushMetrics() {
	if s.metInsts > 0 {
		s.met.Insts.Add(s.metInsts)
		s.metInsts = 0
	}
	if d := s.cycle - s.metCycleMark; d > 0 {
		s.met.Cycles.Add(d)
		s.metCycleMark = s.cycle
	}
}
