package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestFetchEndNames(t *testing.T) {
	if EndPartialMatch.String() != "PartialMatch" || EndMaxBRs.String() != "MaximumBRs" {
		t.Error("end names wrong")
	}
	if FetchEnd(200).String() != "end(200)" {
		t.Error("unknown end name wrong")
	}
}

func TestCycleClassNames(t *testing.T) {
	if CycleUseful.String() != "Useful Fetch" || CycleMisfetch.String() != "Misfetches" {
		t.Error("cycle names wrong")
	}
	if CycleClass(99).String() != "cycle(99)" {
		t.Error("unknown cycle name wrong")
	}
}

func TestHistogramAddAndMean(t *testing.T) {
	var h FetchHistogram
	h.Add(16, EndMaxSize)
	h.Add(8, EndMispredBR)
	h.Add(8, EndMaxBRs)
	if h.Total() != 3 {
		t.Errorf("total = %d", h.Total())
	}
	want := (16.0 + 8 + 8) / 3
	if math.Abs(h.Mean()-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", h.Mean(), want)
	}
}

func TestHistogramClamps(t *testing.T) {
	var h FetchHistogram
	h.Add(-5, EndICache)
	h.Add(99, EndMaxSize)
	if h.Counts[0][EndICache] != 1 || h.Counts[16][EndMaxSize] != 1 {
		t.Error("clamping failed")
	}
}

func TestHistogramClampsEnd(t *testing.T) {
	var h FetchHistogram
	h.Add(4, NumFetchEnds)   // first out-of-range value
	h.Add(4, FetchEnd(200))  // far out of range
	h.Add(4, NumFetchEnds-1) // last in-range value
	if got := h.Counts[4][NumFetchEnds-1]; got != 3 {
		t.Errorf("out-of-range ends not clamped to last condition: count = %d", got)
	}
	if h.Total() != 3 {
		t.Errorf("total = %d", h.Total())
	}
}

func TestHistogramDistributions(t *testing.T) {
	var h FetchHistogram
	for i := 0; i < 3; i++ {
		h.Add(4, EndICache)
	}
	h.Add(16, EndMaxSize)
	bySize := h.BySize()
	if math.Abs(bySize[4]-0.75) > 1e-9 || math.Abs(bySize[16]-0.25) > 1e-9 {
		t.Errorf("bySize = %v", bySize)
	}
	byEnd := h.ByEnd()
	if math.Abs(byEnd[EndICache]-0.75) > 1e-9 || math.Abs(byEnd[EndMaxSize]-0.25) > 1e-9 {
		t.Errorf("byEnd = %v", byEnd)
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h FetchHistogram
	if h.Mean() != 0 || h.Total() != 0 {
		t.Error("empty histogram not zero")
	}
	if h.BySize()[0] != 0 || h.ByEnd()[0] != 0 {
		t.Error("empty distributions not zero")
	}
}

func TestRunDerivedMetrics(t *testing.T) {
	r := &Run{
		Cycles:             100,
		Retired:            450,
		Fetches:            40,
		FetchedCorrect:     428,
		CondBranches:       50,
		CondMispredicts:    4,
		IndirectMisses:     2,
		ResolutionSum:      60,
		ResolutionsCounted: 6,
	}
	if r.IPC() != 4.5 {
		t.Errorf("IPC = %v", r.IPC())
	}
	if r.EffFetchRate() != 10.7 {
		t.Errorf("eff fetch rate = %v", r.EffFetchRate())
	}
	if r.CondMispredictRate() != 0.08 {
		t.Errorf("mispredict rate = %v", r.CondMispredictRate())
	}
	if r.TotalMispredicts() != 6 {
		t.Errorf("total mispredicts = %d", r.TotalMispredicts())
	}
	if r.AvgResolution() != 10 {
		t.Errorf("avg resolution = %v", r.AvgResolution())
	}
}

func TestRunZeroSafe(t *testing.T) {
	var r Run
	if r.IPC() != 0 || r.EffFetchRate() != 0 || r.CondMispredictRate() != 0 || r.AvgResolution() != 0 {
		t.Error("zero run not safe")
	}
	z, two, three := r.PredsFracs()
	if z != 0 || two != 0 || three != 0 {
		t.Error("preds fracs not zero")
	}
}

func TestPredsFracs(t *testing.T) {
	r := &Run{PredsPerFetch: [4]uint64{10, 44, 18, 28}}
	z, two, three := r.PredsFracs()
	if math.Abs(z-0.54) > 1e-9 || math.Abs(two-0.18) > 1e-9 || math.Abs(three-0.28) > 1e-9 {
		t.Errorf("fracs = %v %v %v", z, two, three)
	}
}

func TestLostToMispredicts(t *testing.T) {
	var r Run
	r.Cycle[CycleBranchMiss] = 30
	r.Cycle[CycleMisfetch] = 5
	if r.LostToMispredicts() != 35 {
		t.Errorf("lost = %d", r.LostToMispredicts())
	}
}

func TestPercentChange(t *testing.T) {
	if PercentChange(0, 5) != 0 {
		t.Error("zero base should give 0")
	}
	if got := PercentChange(10, 11); math.Abs(got-10) > 1e-9 {
		t.Errorf("percent change = %v", got)
	}
	if got := PercentChange(10, 8); math.Abs(got+20) > 1e-9 {
		t.Errorf("percent change = %v", got)
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	r := &Run{
		Benchmark: "gcc", Config: "baseline",
		Cycles: 100, Retired: 450,
		Fetches: 40, FetchedCorrect: 428,
		CondBranches: 50, CondMispredicts: 4,
		PredsPerFetch: [4]uint64{10, 44, 18, 28},
	}
	r.Cycle[CycleUseful] = 40
	r.Hist.Add(10, EndMaxBRs)
	s := r.Summary()
	if s.IPC != 4.5 || s.EffFetchRate != 10.7 || s.CondMispredictPct != 8 {
		t.Errorf("summary = %+v", s)
	}
	if s.CyclePct["Useful Fetch"] != 40 {
		t.Errorf("cycle pct = %v", s.CyclePct)
	}
	if s.FetchEnd["MaximumBRs"] != 100 {
		t.Errorf("fetch end = %v", s.FetchEnd)
	}
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"benchmark": "gcc"`, `"ipc": 4.5`, `"effFetchRate": 10.7`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %q", want)
		}
	}
}

// TestSummaryJSONRoundTrip marshals a summary (with provenance metadata),
// unmarshals it, and requires the result to be identical.
func TestSummaryJSONRoundTrip(t *testing.T) {
	r := &Run{
		Benchmark: "perl", Config: "promo-t64",
		Cycles: 250, Retired: 600,
		Fetches: 55, FetchedCorrect: 590, FetchedWrong: 120,
		CondBranches: 80, CondMispredicts: 6,
		PromotedExecuted: 25, PromotedFaults: 1,
		IndirectJumps: 9, IndirectMisses: 2, Returns: 12,
		ResolutionSum: 90, ResolutionsCounted: 8,
		PredsPerFetch: [4]uint64{5, 30, 12, 8},
		Meta: &Meta{
			Tool: "test v1", ConfigHash: "00ff00ff00ff00ff", Seed: 7,
			WarmupInsts: 100, MaxInsts: 600, WallMillis: 12.5,
			GoVersion: "go1.24.0", Hostname: "h", StartedAt: "2026-08-04T00:00:00Z",
		},
	}
	r.Cycle[CycleUseful] = 55
	r.Cycle[CycleBranchMiss] = 100
	r.Hist.Add(11, EndMaxSize)
	r.Hist.Add(5, EndMispredBR)

	s := r.Summary()
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", s, back)
	}
	if back.Meta == nil || *back.Meta != *r.Meta {
		t.Fatalf("meta round trip: %+v vs %+v", back.Meta, r.Meta)
	}
}

// TestSummaryEmptyRun digests a zero-value run: no division blows up, the
// JSON parses, and the absent Meta stays absent.
func TestSummaryEmptyRun(t *testing.T) {
	var r Run
	s := r.Summary()
	if s.IPC != 0 || s.EffFetchRate != 0 || s.Meta != nil {
		t.Fatalf("empty summary = %+v", s)
	}
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"meta"`) {
		t.Error("empty run serialised a meta block")
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("empty round trip mismatch:\n%+v\nvs\n%+v", s, back)
	}
}

// TestNewMeta: NewMeta keeps the fields the caller set and adds the host
// provenance of a run that began at start.
func TestNewMeta(t *testing.T) {
	start := MetaStart()
	in := Meta{ConfigHash: "abc", WarmupInsts: 1, MaxInsts: 2, FastForwardInsts: 3,
		Provenance: ProvSampled, Sampling: &SamplingMeta{Windows: 4}}
	m := NewMeta(start, in)
	if m.ConfigHash != in.ConfigHash || m.WarmupInsts != 1 || m.MaxInsts != 2 ||
		m.FastForwardInsts != 3 || m.Provenance != ProvSampled || m.Sampling != in.Sampling {
		t.Errorf("NewMeta changed the caller's fields: %+v", m)
	}
	if m.GoVersion != runtime.Version() || m.WallMillis < 0 {
		t.Errorf("host provenance: Go %q, wall %v ms", m.GoVersion, m.WallMillis)
	}
	if at, err := time.Parse(time.RFC3339, m.StartedAt); err != nil || !at.Equal(start.UTC().Truncate(time.Second)) {
		t.Errorf("StartedAt = %q (%v), want %v", m.StartedAt, err, start.UTC().Truncate(time.Second))
	}
}
