package obs_test

import (
	"math"
	"testing"

	"tracecache"
	"tracecache/internal/obs"
)

func smallConfig() tracecache.Config {
	cfg := tracecache.PromotionConfig(64)
	cfg.WarmupInsts = 20_000
	cfg.MaxInsts = 60_000
	return cfg
}

// TestIntervalIntegration runs a real simulation with the collector
// attached and checks the windowed telemetry reconstructs the run: at
// least two intervals whose aggregate IPC matches the final IPC within
// 1% (by construction it matches exactly).
func TestIntervalIntegration(t *testing.T) {
	prog, err := tracecache.BenchmarkProgram("compress")
	if err != nil {
		t.Fatal(err)
	}
	s, err := tracecache.NewSimulator(smallConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	coll := tracecache.NewIntervalCollector(5_000)
	s.SetIntervalCollector(coll)
	run := s.Run()

	ts := coll.Series()
	if len(ts.Intervals) < 2 {
		t.Fatalf("intervals = %d, want >= 2", len(ts.Intervals))
	}
	if ts.Benchmark != run.Benchmark || ts.Config != run.Config {
		t.Errorf("series identity %q/%q vs run %q/%q",
			ts.Benchmark, ts.Config, run.Benchmark, run.Config)
	}
	if ts.Meta == nil || ts.Meta.ConfigHash == "" {
		t.Error("series missing provenance metadata")
	}
	agg, ipc := ts.AggregateIPC(), run.IPC()
	if ipc == 0 || math.Abs(agg-ipc)/ipc > 0.01 {
		t.Fatalf("aggregate IPC %v vs run IPC %v (>1%% apart)", agg, ipc)
	}
	var cycles, retired uint64
	for _, iv := range ts.Intervals {
		cycles += iv.Cycles
		retired += iv.Retired
	}
	if cycles != run.Cycles || retired != run.Retired {
		t.Fatalf("interval totals %d cycles / %d retired vs run %d / %d",
			cycles, retired, run.Cycles, run.Retired)
	}
}

// TestBusIntegration runs a simulation with a bus attached and checks the
// event stream is consistent with the run statistics.
func TestBusIntegration(t *testing.T) {
	prog, err := tracecache.BenchmarkProgram("compress")
	if err != nil {
		t.Fatal(err)
	}
	s, err := tracecache.NewSimulator(smallConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	bus := tracecache.NewEventBus(1024)
	var counts [obs.NumKinds]uint64
	var lastCycle uint64
	bus.Attach(obs.FuncSink(func(ev obs.Event) {
		counts[ev.Kind]++
		if ev.Cycle > lastCycle {
			lastCycle = ev.Cycle
		}
	}))
	s.AttachObserver(bus)
	run := s.Run()

	if bus.Count() == 0 {
		t.Fatal("no events emitted")
	}
	for _, k := range []obs.Kind{
		obs.KindFetchRecord, obs.KindTCHit, obs.KindTCMiss,
		obs.KindSegFinalize, obs.KindPromote, obs.KindRedirect,
		obs.KindWindowSample,
	} {
		if counts[k] == 0 {
			t.Errorf("no %v events", k)
		}
	}
	if lastCycle == 0 {
		t.Error("events carry no cycle stamps")
	}
	// Fill unit events are stamped by the bus clock, so promote events must
	// appear with non-zero cycles once the clock advances.
	if run.PromotedExecuted == 0 {
		t.Error("run executed no promoted branches; bus test is vacuous")
	}
	if got := bus.Recent(); len(got) == 0 {
		t.Error("ring buffer retained nothing")
	}
}

// TestChromeTraceIntegration renders a trace from a real run and checks
// both fetch lifetimes and recovery windows appear.
func TestChromeTraceIntegration(t *testing.T) {
	prog, err := tracecache.BenchmarkProgram("compress")
	if err != nil {
		t.Fatal(err)
	}
	s, err := tracecache.NewSimulator(smallConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	chrome := tracecache.NewChromeTrace(0)
	bus := tracecache.NewEventBus(0)
	bus.Attach(chrome)
	s.AttachObserver(bus)
	run := s.Run()
	if run.Retired == 0 {
		t.Fatal("run retired nothing")
	}
	if chrome.Len() == 0 {
		t.Fatal("no trace events")
	}
}
