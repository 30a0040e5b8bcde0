package stats

import (
	"encoding/json"
	"math"
)

// This file implements the aggregate statistics of a sampled run
// (SMARTS-style: Wunderlich et al., ISCA '03): the per-window metric
// samples, their means with standard errors, and 95% confidence
// intervals via the Student t distribution. The simulator produces one
// WindowSample per detailed measurement window; Aggregate turns the
// collection into interval estimates of the paper's headline metrics.

// WindowSample is the measurement of one detailed sampling window.
type WindowSample struct {
	// Index is the window's ordinal, 0-based, in schedule order.
	Index int `json:"index"`
	// StartInst is the committed-stream position (instructions retired
	// before this window's measurement began, functional and detailed).
	StartInst uint64 `json:"startInst"`
	// Retired and Cycles are the window's detailed measurement extent.
	Retired uint64 `json:"retired"`
	Cycles  uint64 `json:"cycles"`

	// Per-window metric samples.
	IPC            float64 `json:"ipc"`
	EffFetchRate   float64 `json:"effFetchRate"`
	MispredictRate float64 `json:"mispredictRate"` // cond mispredicts / cond branch
	TCHitRate      float64 `json:"tcHitRate"`      // window delta: TC hits / lookups

	// Raw counters backing the rates, so pooled (instruction-weighted)
	// estimates can be recomputed from the samples alone.
	CondBranches    uint64 `json:"condBranches"`
	CondMispredicts uint64 `json:"condMispredicts"`
	FetchedCorrect  uint64 `json:"fetchedCorrect"`
	UsefulCycles    uint64 `json:"usefulCycles"`
	TCLookups       uint64 `json:"tcLookups"`
	TCHits          uint64 `json:"tcHits"`
	PromotedFaults  uint64 `json:"promotedFaults,omitempty"`
}

// Estimate is a sampled interval estimate of one metric: the mean across
// windows, its standard error, and the 95% confidence interval
// mean ± t(n−1)·stderr. With a single window the spread is unobservable:
// StdErr is zero and the interval degenerates to [Mean, Mean].
type Estimate struct {
	Mean   float64 `json:"mean"`
	StdErr float64 `json:"stderr"`
	CILow  float64 `json:"ciLow"`
	CIHigh float64 `json:"ciHigh"`
	N      int     `json:"n"`
}

// NewEstimate builds the interval estimate of one metric from its
// per-window samples.
func NewEstimate(samples []float64) Estimate {
	n := len(samples)
	if n == 0 {
		return Estimate{}
	}
	var sum float64
	for _, x := range samples {
		sum += x
	}
	mean := sum / float64(n)
	if n == 1 {
		return Estimate{Mean: mean, CILow: mean, CIHigh: mean, N: 1}
	}
	var ss float64
	for _, x := range samples {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	se := sd / math.Sqrt(float64(n))
	half := tCrit95(n-1) * se
	return Estimate{Mean: mean, StdErr: se, CILow: mean - half, CIHigh: mean + half, N: n}
}

// Contains reports whether x falls inside the confidence interval.
func (e Estimate) Contains(x float64) bool { return x >= e.CILow && x <= e.CIHigh }

// HalfWidth returns the half-width of the confidence interval.
func (e Estimate) HalfWidth() float64 { return (e.CIHigh - e.CILow) / 2 }

// tTable holds two-sided 95% Student t critical values for 1–30 degrees
// of freedom; tSteps extends it sparsely beyond.
var tTable = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

var tSteps = []struct {
	df int
	t  float64
}{{40, 2.021}, {60, 2.000}, {120, 1.980}}

// tCrit95 returns the two-sided 95% Student t critical value for df
// degrees of freedom. Between tabulated points it uses the largest
// tabulated df not exceeding the actual one — t decreases with df, so
// the resulting interval is conservative (never too narrow).
func tCrit95(df int) float64 {
	if df < 1 {
		return 0
	}
	if df <= len(tTable) {
		return tTable[df-1]
	}
	t := tTable[len(tTable)-1]
	for _, s := range tSteps {
		if df >= s.df {
			t = s.t
		}
	}
	if df >= 1000 {
		t = 1.960
	}
	return t
}

// Sampled aggregates one sampled run: the schedule parameters, the
// per-window samples, and the interval estimates of the headline metrics.
type Sampled struct {
	Benchmark string `json:"benchmark"`
	Config    string `json:"config"`

	// Schedule parameters (mirrored in Meta.Sampling).
	WindowInsts uint64 `json:"windowInsts"`
	PeriodInsts uint64 `json:"periodInsts"`
	WarmupInsts uint64 `json:"warmupInsts"`
	Seed        uint64 `json:"seed"`

	// TotalInsts is the committed-stream length spanned by the run
	// (functional gaps plus every detailed instruction); MeasuredInsts is
	// the detailed measured subset (sum of window Retired).
	TotalInsts    uint64 `json:"totalInsts"`
	MeasuredInsts uint64 `json:"measuredInsts"`

	Windows []WindowSample `json:"windows"`

	// Interval estimates across windows. IPC is estimated in the CPI
	// domain and inverted (see Aggregate), so its confidence interval is
	// asymmetric about the mean.
	IPC            Estimate `json:"ipcEstimate"`
	EffFetchRate   Estimate `json:"effFetchRateEstimate"`
	MispredictRate Estimate `json:"mispredictRateEstimate"`
	TCHitRate      Estimate `json:"tcHitRateEstimate"`

	// Meta is the run's provenance block (Provenance == ProvSampled).
	Meta *Meta `json:"meta,omitempty"`
}

// Aggregate recomputes the interval estimates and the measured totals
// from the Windows slice. Call it after appending the final window.
//
// IPC is estimated in the CPI domain (as in SMARTS): windows are
// equal-instruction strata, so the arithmetic mean of per-window CPI is
// the unbiased estimator of aggregate cycles-per-instruction, and the
// aggregate IPC estimate is its reciprocal. Averaging per-window IPCs
// directly would overweight fast windows (Jensen's inequality) and
// overestimate aggregate IPC by 10%+ on realistic schedules.
func (s *Sampled) Aggregate() {
	n := len(s.Windows)
	cpi := make([]float64, 0, n)
	eff := make([]float64, n)
	mis := make([]float64, n)
	s.MeasuredInsts = 0
	tcSamples := make([]float64, 0, n)
	for i, w := range s.Windows {
		if w.IPC > 0 {
			cpi = append(cpi, 1/w.IPC)
		}
		eff[i] = w.EffFetchRate
		mis[i] = w.MispredictRate
		s.MeasuredInsts += w.Retired
		if w.TCLookups > 0 {
			tcSamples = append(tcSamples, w.TCHitRate)
		}
	}
	s.IPC = invertEstimate(NewEstimate(cpi))
	s.EffFetchRate = NewEstimate(eff)
	s.MispredictRate = NewEstimate(mis)
	// Windows with no trace-cache lookups (icache front end) carry no
	// hit-rate sample; the estimate covers the windows that do.
	s.TCHitRate = NewEstimate(tcSamples)
}

// invertEstimate maps the interval estimate of a positive metric to the
// estimate of its reciprocal: the CI endpoints swap, and the standard
// error transforms by the delta method (se(1/x) ≈ se(x)/x²). When the
// source interval touches zero the exact endpoint transform degenerates,
// so the delta-method interval is used instead; either way the result
// stays JSON-safe (no NaN/Inf).
func invertEstimate(e Estimate) Estimate {
	if e.N == 0 || e.Mean <= 0 {
		return Estimate{N: e.N}
	}
	inv := Estimate{Mean: 1 / e.Mean, StdErr: e.StdErr / (e.Mean * e.Mean), N: e.N}
	if e.CILow > 0 {
		inv.CILow, inv.CIHigh = 1/e.CIHigh, 1/e.CILow
	} else {
		h := e.HalfWidth() / (e.Mean * e.Mean)
		inv.CILow, inv.CIHigh = inv.Mean-h, inv.Mean+h
	}
	return inv
}

// JSON renders the aggregate as indented JSON.
func (s *Sampled) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
