package experiments

import (
	"fmt"
	"strings"

	"tracecache/internal/config"
	"tracecache/internal/core"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
	"tracecache/internal/textplot"
	"tracecache/internal/workload"
)

// This file is the runner's sampled entry point: RunSampledE and
// SweepSampledE resolve requests in sampled mode through the same
// executor as the detailed path, whose memo identity includes the mode
// and the sampling schedule, so a sampled estimate can never be
// conflated with (or shared as) a detailed measurement of the same
// configuration. SampledComparison renders the paper-scale headline table
// with confidence intervals.

// RunSampledE estimates the benchmark under the configuration with the
// runner's sampling schedule (Runner.Sampling must be enabled; Budget is
// the total committed-stream extent the schedule covers). Requests are
// memoized and singleflighted exactly like RunE. The returned aggregate
// carries ProvSampled metadata; its pooled counters are also recorded in
// the journal via the usual RunDone event.
func (r *Runner) RunSampledE(cfg sim.Config, bench string) (*stats.Sampled, error) {
	if !r.Sampling.Enabled() {
		return nil, fmt.Errorf("experiments: RunSampledE without a sampling schedule (set Runner.Sampling)")
	}
	e := r.do(r.newRequest(cfg, bench, modeSampled, nil))
	return e.sampled, e.err
}

// SweepSampledE estimates the configuration over every benchmark, fanning
// across the worker pool, in paper order.
func (r *Runner) SweepSampledE(cfg sim.Config) ([]*stats.Sampled, error) {
	return sweep(r, func(bench string) (*stats.Sampled, error) { return r.RunSampledE(cfg, bench) })
}

// SampledComparisonConfigs is the headline comparison set: the reference
// front end, the baseline trace cache, each technique alone, and the two
// regulated/unregulated combinations the paper settles between.
func SampledComparisonConfigs() []sim.Config {
	return []sim.Config{
		config.ICache(),
		config.Baseline(),
		config.Packing(),
		config.Promotion(config.PromotionThreshold),
		config.PromotionPacking(core.PackUnregulated, config.PromotionThreshold),
		config.Best(),
	}
}

// SampledComparison renders the promotion/packing headline comparison at
// the runner's sampled budget: per benchmark and configuration, the
// effective fetch rate and IPC as mean ±95% CI half-width, plus the
// suite-average table the paper's Figures 10 and 11 summarize. It is the
// paper-scale counterpart of Fig10/Fig11, with error bars.
func SampledComparison(r *Runner) (string, error) {
	cfgs := SampledComparisonConfigs()
	var b strings.Builder
	fmt.Fprintf(&b, "total budget %s insts/benchmark: window %d, period %s, warmup %d, seed %d\n",
		group(r.Budget), r.Sampling.WindowInsts, group(r.Sampling.PeriodInsts),
		r.Sampling.WarmupInsts, r.Sampling.Seed)
	fmt.Fprintf(&b, "each cell: mean ±95%% CI half-width over the completed windows\n\n")

	sweeps := make([][]*stats.Sampled, len(cfgs))
	for i, cfg := range cfgs {
		sw, err := r.SweepSampledE(cfg)
		if err != nil {
			return "", err
		}
		sweeps[i] = sw
	}

	head := []string{"Benchmark"}
	for _, cfg := range cfgs {
		head = append(head, cfg.Name)
	}

	section := func(title string, pick func(*stats.Sampled) stats.Estimate, digits int) {
		rows := make([][]string, 0, len(workload.Names())+1)
		means := make([]float64, len(cfgs))
		for bi, bench := range workload.Names() {
			cells := []string{workload.ShortName(bench)}
			for ci := range cfgs {
				e := pick(sweeps[ci][bi])
				cells = append(cells, fmt.Sprintf("%.*f ±%.*f", digits, e.Mean, digits, e.HalfWidth()))
				means[ci] += e.Mean
			}
			rows = append(rows, cells)
		}
		avg := []string{"average"}
		for ci := range cfgs {
			avg = append(avg, fmt.Sprintf("%.*f", digits, means[ci]/float64(len(workload.Names()))))
		}
		rows = append(rows, avg)
		b.WriteString(title + "\n")
		b.WriteString(textplot.Table(head, rows))
		b.WriteString("\n")
	}

	section("Effective fetch rate (paper Fig 10)", func(s *stats.Sampled) stats.Estimate { return s.EffFetchRate }, 2)
	section("IPC (paper Fig 11)", func(s *stats.Sampled) stats.Estimate { return s.IPC }, 3)
	section("Conditional mispredict rate", func(s *stats.Sampled) stats.Estimate { return s.MispredictRate }, 4)
	return b.String(), nil
}

// group formats an instruction count with thousands separators for the
// table headers (40_000_000 -> "40,000,000").
func group(n uint64) string {
	s := fmt.Sprintf("%d", n)
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}
