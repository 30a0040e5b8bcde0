// Package profiler wires pprof CPU and heap profiling into the command-line
// tools behind two flags, so perf work on the simulator (see perfbench) can
// collect profiles from any real workload, not just the Go benchmarks.
package profiler

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to cpuPath (when non-empty) and returns a stop
// function that ends the CPU profile and writes a heap profile to memPath
// (when non-empty, after a final GC so the profile reflects live objects).
// Either path may be empty; with both empty, Start is a no-op and stop
// returns nil. Call stop exactly once, before process exit.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiler: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiler: start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profiler: close cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("profiler: %w", err)
			}
			defer f.Close()
			runtime.GC() // materialise final live-heap state
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("profiler: write heap profile: %w", err)
			}
		}
		return nil
	}, nil
}
