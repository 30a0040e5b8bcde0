package main

import (
	"errors"
	"fmt"
	"strings"

	"tracecache"
	"tracecache/internal/sampling"
	"tracecache/internal/stats"
	"tracecache/internal/textplot"
)

// runSampled executes the sampled mode: schedule and audit. Its outcome
// journals the pooled window counters (sampled provenance, the schedule
// in the metadata) and prints the interval estimates.
func runSampled(cfg tracecache.Config, prog *tracecache.Program) (*outcome, error) {
	s, err := tracecache.NewSimulator(cfg, prog)
	if err != nil {
		return nil, err
	}
	res, err := sampling.Run(s)
	if err != nil {
		return nil, err
	}
	if len(res.Violations) > 0 {
		var b strings.Builder
		fmt.Fprintf(&b, "sampling audit FAILED (%d violations)", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(&b, "\n  [%s] %s: %s", v.Layer, v.Rule, v.Detail)
		}
		return nil, errors.New(b.String())
	}
	return &outcome{run: res.Run, sim: s, sampled: res.Sampled, report: func() { sampleReport(res) }}, nil
}

// sampleReport renders the sampled aggregate: the schedule, the interval
// estimates, and the per-window samples.
func sampleReport(res *sampling.Result) {
	sm := res.Sampled
	fmt.Printf("benchmark %s, configuration %s (sampled)\n\n", sm.Benchmark, sm.Config)
	fmt.Printf("schedule: %d windows of %d insts (warmup %d) every %d insts, seed %d\n",
		len(sm.Windows), sm.WindowInsts, sm.WarmupInsts, sm.PeriodInsts, sm.Seed)
	fmt.Printf("budget: %d total insts, %d measured in detail (%.2f%%)\n\n",
		sm.TotalInsts, sm.MeasuredInsts, 100*float64(sm.MeasuredInsts)/float64(sm.TotalInsts))

	est := func(name string, e stats.Estimate, scale float64, unit string) []string {
		return []string{
			name,
			fmt.Sprintf("%.4f%s", scale*e.Mean, unit),
			fmt.Sprintf("±%.4f", scale*e.HalfWidth()),
			fmt.Sprintf("%.4f", scale*e.StdErr),
			fmt.Sprintf("%d", e.N),
		}
	}
	rows := [][]string{
		est("IPC", sm.IPC, 1, ""),
		est("effective fetch rate", sm.EffFetchRate, 1, ""),
		est("cond mispredict rate", sm.MispredictRate, 100, "%"),
	}
	if sm.TCHitRate.N > 0 {
		rows = append(rows, est("trace-cache hit rate", sm.TCHitRate, 100, "%"))
	}
	fmt.Println(textplot.Table([]string{"Metric", "Mean", "95% CI", "StdErr", "n"}, rows))

	fmt.Println()
	wrows := make([][]string, 0, len(sm.Windows))
	for _, w := range sm.Windows {
		wrows = append(wrows, []string{
			fmt.Sprintf("%d", w.Index),
			fmt.Sprintf("%d", w.StartInst),
			fmt.Sprintf("%d", w.Retired),
			fmt.Sprintf("%d", w.Cycles),
			fmt.Sprintf("%.3f", w.IPC),
			fmt.Sprintf("%.2f", w.EffFetchRate),
			fmt.Sprintf("%.2f%%", 100*w.MispredictRate),
			fmt.Sprintf("%.1f%%", 100*w.TCHitRate),
		})
	}
	fmt.Println(textplot.Table(
		[]string{"Window", "Start", "Retired", "Cycles", "IPC", "EffRate", "Mispred", "TC hit"},
		wrows))
}
