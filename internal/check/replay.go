package check

import (
	"fmt"

	"tracecache/internal/stats"
)

// ReplayStats packages what a replay-fidelity comparison needs from one
// run: the statistics plus the trace cache probe counters (zero for the
// icache front end, where the TC hit-rate rule is skipped).
type ReplayStats struct {
	Run       *stats.Run
	TCLookups uint64
	TCHits    uint64
}

// ReplayTolerance bounds the documented divergence between a detailed run
// and a front-end-only replay of the same configuration over the same
// recorded stream. The divergence sources are structural, not noise (see
// DESIGN.md §9): boundary cuts are fetch-granular instead of
// retire-burst-granular, predictors train at replay commit instead of
// lagging the pipeline, and the replay issues no wrong-path fetches —
// which in particular means its trace cache and L1I are probed by a
// strictly smaller, cleaner access stream.
type ReplayTolerance struct {
	// CountSlack is the absolute slack on the near-exact counters
	// (Retired, CondBranches, IndirectJumps, Returns, PromotedFaults):
	// both engines cut the warmup and budget boundaries at different
	// granularities, shifting counts by at most a couple of fetch bundles.
	CountSlack uint64
	// PromotedRelPct bounds the relative PromotedExecuted deviation (in
	// percent). Whether a committed branch was fetched in promoted form
	// depends on trace cache content, which wrong-path fetches perturb.
	PromotedRelPct float64
	// EffRatePct bounds the relative effective-fetch-rate deviation (in
	// percent).
	EffRatePct float64
	// MispredPP bounds the conditional mispredict-rate deviation in
	// percentage points.
	MispredPP float64
	// TCHitPP bounds the trace cache hit-rate deviation in percentage
	// points. This is the loosest bound: the detailed machine's lookup
	// population includes every wrong-path fetch, so the two hit rates
	// are ratios over different denominators (measured 11-27pp apart on
	// the standard workloads; see Approximations).
	TCHitPP float64
}

// The budget domain DefaultReplayTolerance was calibrated in: at least
// 20k detailed warm-up and 60k measured instructions, the budgets of
// TestFidelity's replay rows in internal/experiments (perfbench replays
// at 20k + 100k). Longer warm-ups are in the domain, but four compress
// points replayed through a fast-forward prefix break the envelope
// there; TestFidelity pins them as expected failures. Below it the
// structural divergences are not yet amortized: a gcc baseline run at
// 2k + 8k replays its conditional mispredict rate 6.3pp below the
// detailed run's. A comparison outside the domain is reported as out of
// domain, never as a pass, and the tolerance is not widened to cover it.
const (
	ReplayDomainWarmupInsts  = 20_000
	ReplayDomainMeasureInsts = 60_000
)

// InReplayDomain reports whether a run's detailed warm-up and measured
// budgets lie in the domain DefaultReplayTolerance was calibrated in.
func InReplayDomain(warmupInsts, measureInsts uint64) bool {
	return warmupInsts >= ReplayDomainWarmupInsts && measureInsts >= ReplayDomainMeasureInsts
}

// DefaultReplayTolerance is the committed fidelity envelope, set from
// measurement with roughly 2-3x headroom: across the standard
// configurations and workloads at the domain's budgets, observed worst
// cases were count slack 7, promoted deviation 5%, effective fetch rate
// 3.6%, mispredict rate 2.4pp, and trace cache hit rate 27pp.
func DefaultReplayTolerance() ReplayTolerance {
	return ReplayTolerance{
		CountSlack:     64,
		PromotedRelPct: 15,
		EffRatePct:     8,
		MispredPP:      4,
		TCHitPP:        40,
	}
}

// CompareReplay verifies a replayed run against its detailed twin under
// the fidelity contract: near-exact counters within CountSlack,
// approximate rates within their documented envelopes, and every
// cycle-domain statistic — undefined under replay — exactly zero.
// Violations use LayerReplay; an empty slice means the replay ties out.
func CompareReplay(detailed, replayed ReplayStats, tol ReplayTolerance) []Violation {
	var vs []Violation
	d, r := detailed.Run, replayed.Run

	counts := []struct {
		rule string
		d, r uint64
	}{
		{"replay/retired", d.Retired, r.Retired},
		{"replay/cond-branches", d.CondBranches, r.CondBranches},
		{"replay/indirect-jumps", d.IndirectJumps, r.IndirectJumps},
		{"replay/returns", d.Returns, r.Returns},
		{"replay/promoted-faults", d.PromotedFaults, r.PromotedFaults},
	}
	for _, c := range counts {
		if absDiff(c.d, c.r) > tol.CountSlack {
			vs = append(vs, Violation{
				Layer: LayerReplay, Rule: c.rule,
				Detail: fmt.Sprintf("detailed=%d replayed=%d (slack %d)", c.d, c.r, tol.CountSlack),
			})
		}
	}

	if diff := absDiff(d.PromotedExecuted, r.PromotedExecuted); diff > tol.CountSlack {
		limit := tol.PromotedRelPct / 100 * float64(d.PromotedExecuted)
		if float64(diff) > limit {
			vs = append(vs, Violation{
				Layer: LayerReplay, Rule: "replay/promoted-executed",
				Detail: fmt.Sprintf("detailed=%d replayed=%d (%.1f%% > %.1f%%)",
					d.PromotedExecuted, r.PromotedExecuted,
					100*float64(diff)/float64(d.PromotedExecuted), tol.PromotedRelPct),
			})
		}
	}

	if de, re := d.EffFetchRate(), r.EffFetchRate(); de > 0 {
		if pct := 100 * absF(re-de) / de; pct > tol.EffRatePct {
			vs = append(vs, Violation{
				Layer: LayerReplay, Rule: "replay/eff-fetch-rate",
				Detail: fmt.Sprintf("detailed=%.4f replayed=%.4f (%.2f%% > %.2f%%)", de, re, pct, tol.EffRatePct),
			})
		}
	}

	if dm, rm := d.CondMispredictRate(), r.CondMispredictRate(); d.CondBranches > 0 {
		if pp := 100 * absF(rm-dm); pp > tol.MispredPP {
			vs = append(vs, Violation{
				Layer: LayerReplay, Rule: "replay/cond-mispredict-rate",
				Detail: fmt.Sprintf("detailed=%.4f%% replayed=%.4f%% (%.2fpp > %.2fpp)",
					100*dm, 100*rm, pp, tol.MispredPP),
			})
		}
	}

	if detailed.TCLookups > 0 && replayed.TCLookups > 0 {
		dh := float64(detailed.TCHits) / float64(detailed.TCLookups)
		rh := float64(replayed.TCHits) / float64(replayed.TCLookups)
		if pp := 100 * absF(rh-dh); pp > tol.TCHitPP {
			vs = append(vs, Violation{
				Layer: LayerReplay, Rule: "replay/tc-hit-rate",
				Detail: fmt.Sprintf("detailed=%.2f%% replayed=%.2f%% (%.2fpp > %.2fpp)",
					100*dh, 100*rh, pp, tol.TCHitPP),
			})
		}
	}

	zeros := []struct {
		rule string
		got  uint64
	}{
		{"replay/zero-cycles", r.Cycles},
		{"replay/zero-fetched-wrong", r.FetchedWrong},
		{"replay/zero-tc-miss-cycles", r.TCMissCycles},
		{"replay/zero-resolutions", r.ResolutionsCounted},
		{"replay/zero-cycle-classes", r.CycleSum()},
	}
	for _, z := range zeros {
		if z.got != 0 {
			vs = append(vs, Violation{
				Layer: LayerReplay, Rule: z.rule,
				Detail: fmt.Sprintf("cycle-domain statistic undefined under replay, got %d", z.got),
			})
		}
	}

	if r.Meta != nil && r.Meta.Provenance != stats.ProvReplay {
		vs = append(vs, Violation{
			Layer: LayerReplay, Rule: "replay/provenance",
			Detail: fmt.Sprintf("provenance %q, want %q", r.Meta.Provenance, stats.ProvReplay),
		})
	}
	return vs
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
