package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewEstimateKnownDistribution(t *testing.T) {
	// Five known samples: mean 10, sample sd 2.5 => se 1.1180,
	// t(4) = 2.776 => half-width 3.1039.
	samples := []float64{7, 8, 10, 12, 13}
	e := NewEstimate(samples)
	if e.N != 5 {
		t.Fatalf("N = %d, want 5", e.N)
	}
	if !almost(e.Mean, 10, 1e-12) {
		t.Errorf("mean = %g, want 10", e.Mean)
	}
	wantSE := math.Sqrt(6.5) / math.Sqrt(5)
	if !almost(e.StdErr, wantSE, 1e-9) {
		t.Errorf("stderr = %g, want %g", e.StdErr, wantSE)
	}
	wantHalf := 2.776 * wantSE
	if !almost(e.HalfWidth(), wantHalf, 1e-9) {
		t.Errorf("half-width = %g, want %g", e.HalfWidth(), wantHalf)
	}
	if !e.Contains(10) || !e.Contains(10+wantHalf-1e-9) || e.Contains(10+wantHalf+1e-6) {
		t.Errorf("CI [%g, %g] membership wrong", e.CILow, e.CIHigh)
	}
}

func TestNewEstimateConstantSamples(t *testing.T) {
	e := NewEstimate([]float64{3.5, 3.5, 3.5, 3.5})
	if e.Mean != 3.5 || e.StdErr != 0 || e.CILow != 3.5 || e.CIHigh != 3.5 {
		t.Errorf("constant samples: got %+v", e)
	}
}

func TestNewEstimateDegenerate(t *testing.T) {
	// A single window gives no spread information: the estimate must
	// stay JSON-safe (no NaN/Inf) with a point interval.
	e := NewEstimate([]float64{2.25})
	if e.Mean != 2.25 || e.StdErr != 0 || e.CILow != 2.25 || e.CIHigh != 2.25 || e.N != 1 {
		t.Errorf("single sample: got %+v", e)
	}
	if z := NewEstimate(nil); z != (Estimate{}) {
		t.Errorf("empty samples: got %+v", z)
	}
}

func TestTCrit95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {4, 2.776}, {29, 2.045}, {30, 2.042},
		{35, 2.042}, // between tabulated points: step down (conservative)
		{40, 2.021}, {59, 2.021}, {60, 2.000}, {119, 2.000},
		{120, 1.980}, {500, 1.980}, {1000, 1.960},
	}
	for _, c := range cases {
		if got := tCrit95(c.df); got != c.want {
			t.Errorf("tCrit95(%d) = %g, want %g", c.df, got, c.want)
		}
	}
	// Monotone non-increasing in df: a larger sample never widens the CI.
	prev := tCrit95(1)
	for df := 2; df <= 2000; df++ {
		if cur := tCrit95(df); cur > prev {
			t.Fatalf("tCrit95 not monotone at df=%d: %g > %g", df, cur, prev)
		} else {
			prev = cur
		}
	}
}

func TestSampledAggregateAndJSONRoundTrip(t *testing.T) {
	s := &Sampled{
		Benchmark:   "gcc",
		Config:      "baseline",
		WindowInsts: 1000, PeriodInsts: 10000, WarmupInsts: 500, Seed: 7,
		TotalInsts: 50000,
		Windows: []WindowSample{
			{Index: 0, StartInst: 4000, Retired: 1000, Cycles: 400, IPC: 2.5, EffFetchRate: 10, MispredictRate: 0.08, TCHitRate: 0.9, TCLookups: 100, TCHits: 90},
			{Index: 1, StartInst: 14000, Retired: 1000, Cycles: 500, IPC: 2.0, EffFetchRate: 11, MispredictRate: 0.10, TCHitRate: 0.8, TCLookups: 100, TCHits: 80},
			{Index: 2, StartInst: 24000, Retired: 1002, Cycles: 445, IPC: 2.25, EffFetchRate: 12, MispredictRate: 0.09, TCHitRate: 0.7, TCLookups: 100, TCHits: 70},
		},
		Meta: &Meta{
			Provenance: ProvSampled,
			Sampling:   &SamplingMeta{WindowInsts: 1000, PeriodInsts: 10000, WarmupInsts: 500, Seed: 7, Windows: 3},
		},
	}
	s.Aggregate()
	if s.MeasuredInsts != 3002 {
		t.Errorf("MeasuredInsts = %d, want 3002", s.MeasuredInsts)
	}
	// IPC aggregates in the CPI domain: mean CPI over equal-instruction
	// windows, inverted. Arithmetic mean of the window IPCs (2.25) would
	// overestimate the aggregate.
	wantCPI := (1/2.5 + 1/2.0 + 1/2.25) / 3
	if !almost(s.IPC.Mean, 1/wantCPI, 1e-12) || s.IPC.N != 3 {
		t.Errorf("IPC estimate = %+v, want mean %g", s.IPC, 1/wantCPI)
	}
	if s.IPC.Mean >= 2.25 {
		t.Errorf("IPC mean %g not below the arithmetic window mean 2.25", s.IPC.Mean)
	}
	if !almost(s.EffFetchRate.Mean, 11, 1e-12) {
		t.Errorf("eff rate mean = %g, want 11", s.EffFetchRate.Mean)
	}
	if s.IPC.CILow >= s.IPC.CIHigh || !s.IPC.Contains(s.IPC.Mean) {
		t.Errorf("IPC CI malformed: %+v", s.IPC)
	}

	b, err := s.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	got := new(Sampled)
	if err := json.Unmarshal(b, got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestSampledAggregateSkipsTCWindowsWithoutLookups(t *testing.T) {
	s := &Sampled{Windows: []WindowSample{
		{IPC: 1, TCHitRate: 0, TCLookups: 0},
		{IPC: 2, TCHitRate: 0.5, TCLookups: 10, TCHits: 5},
	}}
	s.Aggregate()
	if s.IPC.N != 2 {
		t.Errorf("IPC.N = %d, want 2", s.IPC.N)
	}
	if s.TCHitRate.N != 1 || s.TCHitRate.Mean != 0.5 {
		t.Errorf("TCHitRate = %+v, want N=1 mean=0.5", s.TCHitRate)
	}
}

// TestAccumulateCoversAllFields sets every numeric field of a Run to a
// nonzero value via reflection and asserts Accumulate propagates all of
// them — so a future counter added to Run cannot silently vanish from
// pooled sampled statistics.
func TestAccumulateCoversAllFields(t *testing.T) {
	var src Run
	fill(t, reflect.ValueOf(&src).Elem(), "Run")
	src.Benchmark, src.Config, src.Meta = "", "", nil

	var dst Run
	dst.Accumulate(&src)
	dst.Accumulate(&src)

	v, w := reflect.ValueOf(src), reflect.ValueOf(dst)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "Benchmark" || name == "Config" || name == "Meta" {
			continue
		}
		checkDoubled(t, name, v.Field(i), w.Field(i))
	}
}

func fill(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Uint64:
		v.SetUint(3)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Name == "Benchmark" || f.Name == "Config" || f.Name == "Meta" {
				continue
			}
			fill(t, v.Field(i), path+"."+f.Name)
		}
	case reflect.String, reflect.Pointer:
		// Benchmark/Config/Meta equivalents inside nested structs: skip.
	default:
		t.Fatalf("%s: unhandled Run field kind %s — extend Accumulate and this test", path, v.Kind())
	}
}

func checkDoubled(t *testing.T, name string, src, dst reflect.Value) {
	t.Helper()
	switch src.Kind() {
	case reflect.Uint64:
		if dst.Uint() != 2*src.Uint() {
			t.Errorf("Accumulate dropped field %s: got %d, want %d", name, dst.Uint(), 2*src.Uint())
		}
	case reflect.Array:
		for i := 0; i < src.Len(); i++ {
			checkDoubled(t, name, src.Index(i), dst.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < src.NumField(); i++ {
			checkDoubled(t, name+"."+src.Type().Field(i).Name, src.Field(i), dst.Field(i))
		}
	}
}
