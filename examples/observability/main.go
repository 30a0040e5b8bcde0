// Observability: run one benchmark with the full observability layer
// attached — a structured event bus with a custom sink, windowed
// time-series collection, and a Chrome/Perfetto trace export — and show
// what each surface captures.
package main

import (
	"fmt"
	"log"
	"os"

	"tracecache"
	"tracecache/internal/obs"
)

func main() {
	prog, err := tracecache.BenchmarkProgram("go")
	if err != nil {
		log.Fatal(err)
	}
	cfg := tracecache.PromotionConfig(64)
	cfg.WarmupInsts = 100_000
	cfg.MaxInsts = 300_000

	s, err := tracecache.NewSimulator(cfg, prog)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Event bus with a custom sink: count promotions and demotions as
	// they happen. The ChromeTrace sink rides the same bus.
	var promotions, demotions uint64
	chrome := tracecache.NewChromeTrace(0)
	bus := tracecache.NewEventBus()
	bus.Attach(chrome)
	bus.Attach(obs.FuncSink(func(ev tracecache.Event) {
		switch ev.Kind {
		case obs.KindPromote:
			promotions++
		case obs.KindDemote:
			demotions++
		}
	}))
	s.AttachObserver(bus)

	// 2. Windowed time series: one telemetry snapshot every 5000 cycles.
	coll := tracecache.NewIntervalCollector(5_000)
	s.SetIntervalCollector(coll)

	run := s.Run()
	fmt.Printf("%s/%s: IPC %.2f over %d cycles; %d bus events (%d promote, %d demote)\n\n",
		run.Benchmark, run.Config, run.IPC(), run.Cycles,
		bus.Count(), promotions, demotions)

	// The time series reconstructs the run exactly.
	ts := coll.Series()
	fmt.Printf("%-10s %8s %8s %10s %10s\n", "interval", "ipc", "tc-hit%", "promo-cov", "preds/cyc")
	for _, iv := range ts.Intervals {
		fmt.Printf("%-10d %8.3f %8.1f %10.2f %10.2f\n",
			iv.Index, iv.IPC, 100*iv.TCHitRate, iv.PromotionCoverage, iv.PredsPerCycle)
	}
	fmt.Printf("\naggregate IPC %.4f vs run IPC %.4f\n", ts.AggregateIPC(), run.IPC())

	// 3. Perfetto export: open observability.trace.json at ui.perfetto.dev.
	f, err := os.Create("observability.trace.json")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := chrome.WriteJSON(f, run.Meta); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote observability.trace.json (%d trace events, %d dropped)\n",
		chrome.Len(), chrome.Dropped())
}
