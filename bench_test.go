// Benchmarks of the simulator's raw throughput, with and without -check:
//
//	go test -run xxx -bench=SimulatorThroughput -benchmem .
//
// For the speed of the paper's experiments, with its spread, use
// perfbench (bash perfbench/run.sh); cmd/tcbench regenerates them.
package tracecache_test

import (
	"testing"

	"tracecache"
)

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
