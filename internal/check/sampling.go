package check

import (
	"fmt"

	"tracecache/internal/stats"
)

// This file is the sampling verification layer (LayerSampling), in two
// halves. SamplingAudit runs alongside every sampled run and verifies
// the phase-conservation identities of the schedule: the driver's
// committed-stream position advances gap by gap and window by window
// with no instruction executed twice or skipped, every measurement
// window retires its budget (within retirement burst granularity), and
// the run covers its total budget. CompareSampled is the offline
// fidelity comparison: the sampled interval estimates of a small-budget
// run are held against a fully detailed run of the same budget, and each
// mean must cover the detailed truth within its own confidence interval
// plus a documented tolerance.
//
// The audit takes plain integers (committed-stream positions from
// Simulator.CommittedInsts) rather than simulator state: sim imports
// check, so this package cannot see the simulator, and positions are the
// whole contract anyway.

// SamplingAudit verifies the phase-conservation identities of one
// sampled run. The driver reports every phase transition; Finalize
// returns the collected violations.
type SamplingAudit struct {
	start       uint64 // committed position at construction
	pos         uint64 // expected committed position
	budget      uint64 // total committed-stream budget
	windowInsts uint64
	retireSlack uint64 // per-segment overshoot: retirement is burst-granular
	drainSlack  uint64 // bound on drain-tail retirements past a captured sample
	windows     int
	measured    uint64 // sum of captured window Retired counts
	halted      bool
	vs          []Violation
}

// NewSamplingAudit starts an audit at the given committed-stream
// position. budget is the total committed-stream extent the run must
// cover (unless the program halts); windowInsts the per-window
// measurement budget; retireWidth the machine's retirement width (the
// overshoot granularity); drainBound an upper bound on instructions a
// pipeline drain can retire past a captured sample (window capacity plus
// a fetch bundle).
func NewSamplingAudit(startPos, budget, windowInsts uint64, retireWidth, drainBound int) *SamplingAudit {
	a := &SamplingAudit{
		start:       startPos,
		pos:         startPos,
		budget:      budget,
		windowInsts: windowInsts,
		drainSlack:  uint64(drainBound),
	}
	if retireWidth > 0 {
		a.retireSlack = uint64(retireWidth - 1)
	}
	return a
}

func (a *SamplingAudit) violatef(rule, format string, args ...any) {
	a.vs = append(a.vs, Violation{
		Layer: LayerSampling, Rule: rule,
		Detail: fmt.Sprintf(format, args...),
	})
}

// checkPos verifies the driver and the machine agree on where the
// committed stream stands before a phase.
func (a *SamplingAudit) checkPos(phase string, before uint64) {
	if before != a.pos {
		a.violatef("sampling/phase-position",
			"%s began at committed position %d, audit expected %d", phase, before, a.pos)
	}
	a.pos = before
}

// OnGap records one functional fast-forward gap: requested length, the
// count the simulator reports executing, and the committed positions
// around it. A gap shorter than requested is legal only at program halt.
func (a *SamplingAudit) OnGap(before, requested, done, after uint64, halted bool) {
	a.checkPos("gap", before)
	if after-before != done {
		a.violatef("sampling/gap-executed-once",
			"gap advanced the committed stream by %d but reported %d executed", after-before, done)
	}
	if done != requested && !halted {
		a.violatef("sampling/gap-short",
			"gap executed %d of %d requested without halting", done, requested)
	}
	a.halted = a.halted || halted
	a.pos = after
}

// OnWarmup records one detailed warmup segment (statistics discarded).
func (a *SamplingAudit) OnWarmup(before, target, after uint64, halted bool) {
	a.checkPos("warmup", before)
	a.checkSegment("warmup", target, after-before, halted)
	a.halted = a.halted || halted
	a.pos = after
}

// OnWindow records one measurement window: the committed positions
// around the {measure, drain} pair and the Retired count of the captured
// sample. The drain tail (after the sample was captured) is bounded by
// drainBound; the sample itself must cover the window budget.
func (a *SamplingAudit) OnWindow(before, after, sampleRetired uint64, halted bool) {
	a.checkPos("window", before)
	a.checkSegment("window", a.windowInsts, sampleRetired, halted)
	total := after - before
	if total < sampleRetired {
		a.violatef("sampling/window-drain",
			"window committed %d total but the sample alone retired %d", total, sampleRetired)
	} else if tail := total - sampleRetired; tail > a.drainSlack {
		a.violatef("sampling/window-drain",
			"drain tail retired %d instructions, bound %d", tail, a.drainSlack)
	}
	a.windows++
	a.measured += sampleRetired
	a.halted = a.halted || halted
	a.pos = after
}

func (a *SamplingAudit) checkSegment(phase string, target, got uint64, halted bool) {
	if got < target && !halted {
		a.violatef("sampling/"+phase+"-short",
			"%s retired %d of %d without halting", phase, got, target)
	}
	if got > target+a.retireSlack {
		a.violatef("sampling/"+phase+"-overrun",
			"%s retired %d, budget %d + retire slack %d", phase, got, target, a.retireSlack)
	}
}

// Windows returns the number of measurement windows recorded so far.
func (a *SamplingAudit) Windows() int { return a.windows }

// Finalize verifies the end-of-run identities — the final committed
// position matches the audited phases, the run covered its budget (or
// halted), and the window samples sum to the measured total — and
// returns every violation collected.
func (a *SamplingAudit) Finalize(final uint64, measuredTotal uint64) []Violation {
	if final != a.pos {
		a.violatef("sampling/final-position",
			"run ended at committed position %d, audited phases account for %d", final, a.pos)
	}
	if covered := final - a.start; covered < a.budget && !a.halted {
		a.violatef("sampling/budget-covered",
			"run covered %d of budget %d without halting", covered, a.budget)
	}
	if measuredTotal != a.measured {
		a.violatef("sampling/measured-sum",
			"window samples sum to %d retired, aggregate reports %d", a.measured, measuredTotal)
	}
	return a.vs
}

// GroundTruth packages a fully detailed run for CompareSampled: its
// statistics plus the trace cache probe counters (zero for the icache
// front end, where the TC hit-rate rule is skipped).
type GroundTruth struct {
	Run       *stats.Run
	TCLookups uint64
	TCHits    uint64
}

// SampledTolerance widens each sampled confidence interval before it
// must cover the detailed truth. Pure CI coverage is the wrong contract
// here: the synthetic workloads are highly stationary, so per-window
// variance — and with it the CI — can collapse toward zero while the
// estimate still carries structural bias against a fully detailed run
// (windows measure post-warmup steady state; the detailed run includes
// every transient, and its microarchitectural state never resets).
// The slack bounds that structural bias, exactly as ReplayTolerance
// bounds the replay engine's.
type SampledTolerance struct {
	// IPCRelPct and EffRateRelPct widen the IPC and effective-fetch-rate
	// intervals by a relative percentage of the detailed truth.
	IPCRelPct     float64
	EffRateRelPct float64
	// MispredPP and TCHitPP widen the mispredict-rate and TC hit-rate
	// intervals by absolute percentage points.
	MispredPP float64
	TCHitPP   float64
}

// DefaultSampledTolerance is the committed fidelity envelope, set from
// measurement (TestRunMatchesDetailedTruth in internal/sampling logs the
// observed deviations; DESIGN.md §10 states the contract).
func DefaultSampledTolerance() SampledTolerance {
	return SampledTolerance{
		IPCRelPct:     8,
		EffRateRelPct: 6,
		MispredPP:     2,
		TCHitPP:       10,
	}
}

// CompareSampled verifies a sampled run against a fully detailed run of
// the same total budget: each sampled mean must fall within its own 95%
// confidence interval — widened by the documented tolerance — of the
// detailed truth, and the sampled provenance must be marked. Violations
// use LayerSampling; an empty slice means the estimates tie out.
func CompareSampled(detailed GroundTruth, sampled *stats.Sampled, tol SampledTolerance) []Violation {
	var vs []Violation
	d := detailed.Run

	cover := func(rule string, e stats.Estimate, truth, slack float64) {
		if e.N == 0 {
			return
		}
		if truth < e.CILow-slack || truth > e.CIHigh+slack {
			vs = append(vs, Violation{
				Layer: LayerSampling, Rule: rule,
				Detail: fmt.Sprintf(
					"detailed truth %.4f outside sampled CI [%.4f, %.4f] ± slack %.4f (mean %.4f, n=%d)",
					truth, e.CILow, e.CIHigh, slack, e.Mean, e.N),
			})
		}
	}

	cover("sampling/ipc", sampled.IPC, d.IPC(), tol.IPCRelPct/100*d.IPC())
	cover("sampling/eff-fetch-rate", sampled.EffFetchRate, d.EffFetchRate(),
		tol.EffRateRelPct/100*d.EffFetchRate())
	cover("sampling/cond-mispredict-rate", sampled.MispredictRate,
		d.CondMispredictRate(), tol.MispredPP/100)
	if detailed.TCLookups > 0 {
		truth := float64(detailed.TCHits) / float64(detailed.TCLookups)
		cover("sampling/tc-hit-rate", sampled.TCHitRate, truth, tol.TCHitPP/100)
	}

	if sampled.Meta == nil || sampled.Meta.Provenance != stats.ProvSampled {
		got := "<nil>"
		if sampled.Meta != nil {
			got = sampled.Meta.Provenance
		}
		vs = append(vs, Violation{
			Layer: LayerSampling, Rule: "sampling/provenance",
			Detail: fmt.Sprintf("provenance %q, want %q", got, stats.ProvSampled),
		})
	} else if sm := sampled.Meta.Sampling; sm == nil {
		vs = append(vs, Violation{
			Layer: LayerSampling, Rule: "sampling/provenance",
			Detail: "sampled run carries no Meta.Sampling schedule block",
		})
	} else if sm.Windows != len(sampled.Windows) {
		vs = append(vs, Violation{
			Layer: LayerSampling, Rule: "sampling/window-count",
			Detail: fmt.Sprintf("Meta.Sampling.Windows=%d, %d window samples recorded",
				sm.Windows, len(sampled.Windows)),
		})
	}
	return vs
}
