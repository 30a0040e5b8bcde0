// Benchmarks regenerating every table and figure of the paper at reduced
// instruction budgets, one per experiment, plus the headline comparison
// and the simulator's raw throughput with and without -check:
//
//	go test -bench=. -benchmem
//
// The experiment runner memoizes simulations, so configurations shared by
// several experiments are simulated once per process. For full-budget
// reproductions use cmd/tcbench; for speed figures with their spread, use
// perfbench (bash perfbench/run.sh).
package tracecache_test

import (
	"strings"
	"sync"
	"testing"

	"tracecache"
)

// benchWarmup/benchBudget are reduced budgets for the testing.B harness.
const (
	benchWarmup = 60_000
	benchBudget = 100_000
)

var runnerOnce = sync.OnceValue(func() *tracecache.Runner {
	return tracecache.NewRunner(benchWarmup, benchBudget)
})

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := tracecache.ExperimentByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	r := runnerOnce()
	var out string
	for i := 0; i < b.N; i++ {
		o, err := e.Run(r)
		if err != nil {
			b.Fatal(err)
		}
		out = o
	}
	if len(strings.TrimSpace(out)) == 0 {
		b.Fatalf("experiment %s produced no output", id)
	}
}

func BenchmarkTable1Workloads(b *testing.B)            { benchExperiment(b, "table1") }
func BenchmarkFig4FetchBreakdownBaseline(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkTable2PromotionThresholds(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkFig6FetchBreakdownPromotion(b *testing.B) {
	benchExperiment(b, "fig6")
}
func BenchmarkFig7MispredictChange(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkTable3PredictionBandwidth(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig9Packing(b *testing.B)               { benchExperiment(b, "fig9") }
func BenchmarkFig10AllTechniques(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkTable4PackingRegulation(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkFig11IPC(b *testing.B)                  { benchExperiment(b, "fig11") }
func BenchmarkFig12CycleAccounting(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13LostCycles(b *testing.B)           { benchExperiment(b, "fig13") }
func BenchmarkFig14Mispredicts(b *testing.B)          { benchExperiment(b, "fig14") }
func BenchmarkFig15ResolutionTime(b *testing.B)       { benchExperiment(b, "fig15") }
func BenchmarkFig16IdealCore(b *testing.B)            { benchExperiment(b, "fig16") }

// BenchmarkSimulatorThroughput measures raw simulation speed
// (instructions simulated per second) on the baseline machine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prog, err := tracecache.BenchmarkProgram("gcc")
	if err != nil {
		b.Fatal(err)
	}
	cfg := tracecache.BaselineConfig()
	cfg.MaxInsts = 200_000
	b.ResetTimer()
	var retired uint64
	for i := 0; i < b.N; i++ {
		run, err := tracecache.Simulate(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		retired += run.Retired
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkSimulatorThroughputChecked is the same run with the
// self-verification layer on (lockstep reference model + structural
// invariants); the gap against BenchmarkSimulatorThroughput is what
// -check costs.
func BenchmarkSimulatorThroughputChecked(b *testing.B) {
	prog, err := tracecache.BenchmarkProgram("gcc")
	if err != nil {
		b.Fatal(err)
	}
	cfg := tracecache.BaselineConfig()
	cfg.MaxInsts = 200_000
	cfg.Check = true
	b.ResetTimer()
	var retired uint64
	for i := 0; i < b.N; i++ {
		run, err := tracecache.Simulate(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		retired += run.Retired
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkHeadline reports the paper's headline comparison as metrics:
// effective fetch rate of baseline vs promotion+packing.
func BenchmarkHeadline(b *testing.B) {
	r := runnerOnce()
	var base, best float64
	for i := 0; i < b.N; i++ {
		base, best = 0, 0
		for _, bench := range tracecache.Benchmarks() {
			baseRun, err := r.RunE(tracecache.BaselineConfig(), bench)
			if err != nil {
				b.Fatal(err)
			}
			bestRun, err := r.RunE(tracecache.PromotionPackingConfig(tracecache.PackUnregulated, 64), bench)
			if err != nil {
				b.Fatal(err)
			}
			base += baseRun.EffFetchRate()
			best += bestRun.EffFetchRate()
		}
		n := float64(len(tracecache.Benchmarks()))
		base /= n
		best /= n
	}
	b.ReportMetric(base, "baseline-eff")
	b.ReportMetric(best, "promo+pack-eff")
	b.ReportMetric(100*(best-base)/base, "gain-%")
}
