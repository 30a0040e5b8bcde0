package check

import (
	"strings"
	"testing"

	"tracecache/internal/stats"
)

// twin builds a detailed/replayed pair that ties out exactly.
func twin() (ReplayStats, ReplayStats) {
	mk := func() *stats.Run {
		r := &stats.Run{
			Retired: 60_000, Fetches: 5_000, FetchedCorrect: 60_000,
			CondBranches: 13_000, CondMispredicts: 1_300,
			IndirectJumps: 230, Returns: 28,
			PromotedExecuted: 3_800, PromotedFaults: 26,
		}
		return r
	}
	d, r := mk(), mk()
	d.Cycles = 20_000
	d.Cycle[stats.CycleUseful] = 5_000
	r.Meta = &stats.Meta{Provenance: stats.ProvReplay}
	return ReplayStats{Run: d, TCLookups: 10_000, TCHits: 8_000},
		ReplayStats{Run: r, TCLookups: 5_200, TCHits: 4_900}
}

func ruleSet(vs []Violation) map[string]bool {
	out := make(map[string]bool, len(vs))
	for _, v := range vs {
		out[v.Rule] = true
	}
	return out
}

func TestCompareReplayClean(t *testing.T) {
	d, r := twin()
	if vs := CompareReplay(d, r, DefaultReplayTolerance()); len(vs) != 0 {
		t.Fatalf("violations on a clean twin: %v", vs)
	}
}

func TestCompareReplayWithinSlack(t *testing.T) {
	d, r := twin()
	r.Run.Retired += 30
	r.Run.CondBranches -= 12
	r.Run.PromotedExecuted += 300 // ~8% relative, inside the 15% envelope
	if vs := CompareReplay(d, r, DefaultReplayTolerance()); len(vs) != 0 {
		t.Fatalf("violations inside the envelope: %v", vs)
	}
}

func TestCompareReplayCountViolations(t *testing.T) {
	d, r := twin()
	r.Run.Retired += 1_000
	r.Run.IndirectJumps = 0
	r.Run.PromotedExecuted = 5_000 // >30% off
	vs := ruleSet(CompareReplay(d, r, DefaultReplayTolerance()))
	for _, want := range []string{"replay/retired", "replay/indirect-jumps", "replay/promoted-executed"} {
		if !vs[want] {
			t.Errorf("missing violation %s (got %v)", want, vs)
		}
	}
}

func TestCompareReplayRateViolations(t *testing.T) {
	d, r := twin()
	r.Run.Fetches = 7_000         // eff rate 20%+ low
	r.Run.CondMispredicts = 2_600 // +10pp
	r.TCHits = 1_000              // hit rate 75pp apart
	vs := ruleSet(CompareReplay(d, r, DefaultReplayTolerance()))
	for _, want := range []string{"replay/eff-fetch-rate", "replay/cond-mispredict-rate", "replay/tc-hit-rate"} {
		if !vs[want] {
			t.Errorf("missing violation %s (got %v)", want, vs)
		}
	}
}

func TestCompareReplayUndefinedMustBeZero(t *testing.T) {
	d, r := twin()
	r.Run.Cycles = 100
	r.Run.FetchedWrong = 5
	r.Run.Cycle[stats.CycleUseful] = 7
	vs := ruleSet(CompareReplay(d, r, DefaultReplayTolerance()))
	for _, want := range []string{"replay/zero-cycles", "replay/zero-fetched-wrong", "replay/zero-cycle-classes"} {
		if !vs[want] {
			t.Errorf("missing violation %s (got %v)", want, vs)
		}
	}
}

func TestCompareReplayProvenance(t *testing.T) {
	d, r := twin()
	r.Run.Meta.Provenance = stats.ProvCold
	vs := CompareReplay(d, r, DefaultReplayTolerance())
	if len(vs) != 1 || vs[0].Rule != "replay/provenance" {
		t.Fatalf("violations = %v, want exactly replay/provenance", vs)
	}
	if vs[0].Layer != LayerReplay || vs[0].Layer.String() != "replay" {
		t.Errorf("layer = %v", vs[0].Layer)
	}
	if !strings.Contains(vs[0].String(), "replay/provenance") {
		t.Errorf("String() = %q", vs[0].String())
	}
}

// TestInReplayDomain pins the envelope's calibrated budget domain: at
// least 20k warm-up and 60k measured instructions, both required.
func TestInReplayDomain(t *testing.T) {
	for _, c := range []struct {
		warm, measure uint64
		want          bool
	}{
		{20_000, 60_000, true},
		{20_000, 100_000, true},
		{400_000, 600_000, true},
		{2_000, 8_000, false},
		{19_999, 60_000, false},
		{20_000, 59_999, false},
		{0, 1_000_000, false},
	} {
		if got := InReplayDomain(c.warm, c.measure); got != c.want {
			t.Errorf("InReplayDomain(%d, %d) = %v, want %v", c.warm, c.measure, got, c.want)
		}
	}
}
