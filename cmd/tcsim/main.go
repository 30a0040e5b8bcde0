// Command tcsim runs one benchmark under one machine configuration and
// prints a full report: IPC, effective fetch rate, branch behaviour, the
// fetch width breakdown and the fetch-cycle accounting.
//
// Usage:
//
//	tcsim -bench gcc -config baseline -warmup 400000 -insts 1000000
//	tcsim -bench gcc -config best -ffwd 10000000 -warmup 400000 -insts 1000000
//	tcsim -bench gcc -config promote -interval 10000 -timeseries ts.json -trace tr.json
//	tcsim -bench gcc -http 127.0.0.1:8080 -journal runs.jsonl
//	tcsim -bench gcc -config promo-t64 -replay -json
//	tcsim -bench gcc -config baseline -replay-verify
//	tcsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tracecache"
	"tracecache/internal/buildinfo"
	"tracecache/internal/core"
	"tracecache/internal/journal"
	"tracecache/internal/metrics"
	"tracecache/internal/monitor"
	"tracecache/internal/obs"
	"tracecache/internal/profiler"
	"tracecache/internal/program"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
	"tracecache/internal/textplot"
)

func main() {
	var (
		bench    = flag.String("bench", "gcc", "benchmark name (see -list)")
		cfgStr   = flag.String("config", "baseline", "configuration name (see -list)")
		ffwd     = flag.Uint64("ffwd", 0, "instructions to fast-forward functionally before the detailed phases")
		warmup   = flag.Uint64("warmup", 400_000, "warmup instructions before measurement")
		insts    = flag.Uint64("insts", 1_000_000, "measured instructions")
		list     = flag.Bool("list", false, "list benchmarks and configurations")
		asJSON   = flag.Bool("json", false, "emit a JSON summary instead of the report")
		progFile = flag.String("prog", "", "run a saved program image (tcgen -save) instead of -bench")
		version  = flag.Bool("version", false, "print version and exit")
		interval = flag.Uint64("interval", 10_000, "time-series interval length in cycles")
		tsOut    = flag.String("timeseries", "", "write windowed time-series telemetry to this file (.csv for CSV, JSON otherwise)")
		trOut    = flag.String("trace", "", "write a Chrome/Perfetto trace-event file (open at ui.perfetto.dev)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		check    = flag.Bool("check", false, "run with the self-verification layer (lockstep reference model + invariants); violations exit non-zero")
		httpAddr = flag.String("http", "", "serve live monitoring on this address (/metrics, /progress, /debug/pprof), e.g. 127.0.0.1:8080")
		jPath    = flag.String("journal", "", "append one JSONL record for this run to this file")
		replay   = flag.Bool("replay", false, "record the committed stream functionally and replay it through the front end only, as tcbench -replay does (cycle-domain stats undefined; see DESIGN.md §9)")
		repVer   = flag.Bool("replay-verify", false, "run detailed, replay as -replay does, and verify the replayed statistics against the detailed run; violations exit non-zero")
		sample   = flag.String("sample", "", "statistical sampling schedule window:period:warmup[:seed]; -insts becomes the total committed-stream budget and -warmup is unused (see DESIGN.md §10)")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("tcsim"))
		return
	}
	if *list {
		fmt.Println("benchmarks: ", strings.Join(tracecache.Benchmarks(), " "))
		fmt.Println("configs:    ", strings.Join(tracecache.ConfigNames(), " "))
		return
	}

	cfg, ok := tracecache.ConfigByName(*cfgStr)
	if !ok {
		fmt.Fprintf(os.Stderr, "tcsim: unknown config %q (try -list)\n", *cfgStr)
		os.Exit(1)
	}
	cfg.FastForwardInsts = *ffwd
	cfg.WarmupInsts = *warmup
	cfg.MaxInsts = *insts
	cfg.Check = *check

	var prog *tracecache.Program
	var err error
	if *progFile != "" {
		prog, err = program.LoadFile(*progFile)
	} else {
		prog, err = tracecache.BenchmarkProgram(*bench)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcsim: %v (try -list)\n", err)
		os.Exit(1)
	}

	if *replay || *repVer {
		if *check || *httpAddr != "" || *tsOut != "" || *trOut != "" || *sample != "" {
			fmt.Fprintln(os.Stderr, "tcsim: -replay/-replay-verify cannot be combined with -check, -http, -timeseries, -trace or -sample")
			os.Exit(1)
		}
	}
	if *repVer && (*asJSON || *jPath != "") {
		fmt.Fprintln(os.Stderr, "tcsim: -replay-verify cannot be combined with -json or -journal (it compares two runs and has no single summary)")
		os.Exit(1)
	}
	if *sample != "" {
		if *httpAddr != "" || *tsOut != "" || *trOut != "" {
			fmt.Fprintln(os.Stderr, "tcsim: -sample cannot be combined with -http, -timeseries or -trace (windowed telemetry needs a contiguous detailed run)")
			os.Exit(1)
		}
		p, err := sim.ParseSamplingSpec(*sample)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcsim: %v\n", err)
			os.Exit(1)
		}
		cfg.Sampling = p
		cfg.WarmupInsts = 0 // each window carries its own warmup
	}

	// The telemetry sinks only a detailed run feeds: the refusals above
	// leave them nil in every other mode.
	var coll *obs.Collector
	if *tsOut != "" {
		coll = obs.NewCollector(*interval)
	}
	var chrome *obs.ChromeTrace
	if *trOut != "" {
		chrome = obs.NewChromeTrace(0)
	}
	pointKey := *cfgStr + "/" + *bench
	if *progFile != "" {
		pointKey = *cfgStr + "/" + *progFile
	}

	stopProf, err := profiler.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcsim: %v\n", err)
		os.Exit(1)
	}
	started := time.Now()
	var out *outcome
	switch {
	case *repVer:
		err = runReplayVerify(cfg, prog)
	case *sample != "":
		out, err = runSampled(cfg, prog)
	case *replay:
		out, err = runReplay(cfg, prog)
	default:
		out, err = runDetailed(cfg, prog, coll, chrome, *httpAddr, pointKey)
	}
	wall := time.Since(started)

	// The shared tail: every mode stops the profiler here, and every mode
	// with one summary stamps, journals and prints it here.
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcsim: %v\n", err)
		os.Exit(1)
	}
	if out == nil {
		return // -replay-verify printed its comparison
	}
	stampMeta(out.run.Meta, *bench, *progFile)

	if *jPath != "" {
		if err := appendJournal(*jPath, out.run, wall); err != nil {
			fmt.Fprintf(os.Stderr, "tcsim: %v\n", err)
			os.Exit(1)
		}
	}

	if coll != nil {
		if err := writeSeries(coll.Series(), *tsOut); err != nil {
			fmt.Fprintf(os.Stderr, "tcsim: %v\n", err)
			os.Exit(1)
		}
	}
	if chrome != nil {
		if err := writeTrace(chrome, out.run.Meta, *trOut); err != nil {
			fmt.Fprintf(os.Stderr, "tcsim: %v\n", err)
			os.Exit(1)
		}
	}

	if out.sim != nil {
		if chk := out.sim.Checker(); chk != nil {
			if chk.Total() > 0 {
				fmt.Fprintf(os.Stderr, "tcsim: self-check FAILED\n%s\n", chk.Report())
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "tcsim: self-check passed (%d committed instructions verified, 0 violations)\n", chk.Commits())
		}
	}

	if *asJSON {
		var js []byte
		if out.sampled != nil {
			js, err = out.sampled.JSON()
		} else {
			js, err = out.run.Summary().JSON()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(js))
		return
	}
	out.report()
}

// outcome is what one mode hands main's shared tail.
type outcome struct {
	// run is stamped and journaled; -json summarizes it.
	run *tracecache.Run
	// sim is the simulator of a detailed or sampled run, whose
	// self-check the tail reports. Nil for a replay.
	sim *tracecache.Simulator
	// sampled, in sampled mode, is the estimate -json prints instead of
	// run's summary.
	sampled *stats.Sampled
	// report prints the text report.
	report func()
}

// runDetailed runs the configuration fully detailed, feeding the
// telemetry sinks that are non-nil and, with httpAddr set, serving live
// monitoring of the one point.
func runDetailed(cfg tracecache.Config, prog *tracecache.Program, coll *obs.Collector, chrome *obs.ChromeTrace, httpAddr, pointKey string) (*outcome, error) {
	s, err := tracecache.NewSimulator(cfg, prog)
	if err != nil {
		return nil, err
	}
	if coll != nil {
		s.SetIntervalCollector(coll)
	}
	// All event sinks — the Chrome trace and the monitoring bridge —
	// share one lazily created bus.
	var bus *obs.Bus
	ensureBus := func() *obs.Bus {
		if bus == nil {
			bus = obs.NewBus()
			s.AttachObserver(bus)
		}
		return bus
	}
	if chrome != nil {
		ensureBus().Attach(chrome)
	}
	var live *monitor.Progress
	if httpAddr != "" {
		reg := metrics.NewRegistry()
		simMet := sim.NewMetrics(reg)
		s.AttachMetrics(simMet)
		ensureBus().Attach(metrics.NewBusSink(reg))
		live = monitor.NewProgress(1, simMet.Insts.Value)
		live.PointQueued(pointKey)
		monSrv := &monitor.Server{Registry: reg, Progress: live}
		addr, err := monSrv.Start(httpAddr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "tcsim: monitoring on http://%s (/metrics /progress /debug/pprof)\n", addr)
		live.PointStarted(pointKey)
	}

	started := time.Now()
	run := s.Run()
	if live != nil {
		live.PointDone(pointKey, nil, time.Since(started))
		live.Finish()
	}
	return &outcome{run: run, sim: s, report: func() {
		reportParts(run, s.TraceCache(), s.FillUnit())
	}}, nil
}

// stampMeta records the tool and, for a named benchmark, the workload
// seed in a run's provenance; detailed, sampled and replayed runs all
// stamp here.
func stampMeta(m *stats.Meta, bench, progFile string) {
	if m == nil {
		return
	}
	m.Tool = "tcsim " + buildinfo.Version()
	if progFile == "" {
		if p, ok := tracecache.BenchmarkProfile(bench); ok {
			m.Seed = p.Seed
		}
	}
}

// appendJournal appends this run's record to the journal file.
func appendJournal(path string, run *tracecache.Run, wall time.Duration) error {
	w, err := journal.OpenFile(path)
	if err != nil {
		return err
	}
	rec := journal.FromRun(run)
	rec.Time = time.Now().UTC().Format(time.RFC3339)
	if run.Meta != nil {
		rec.Provenance = run.Meta.Provenance
	}
	rec.WallMillis = float64(wall) / float64(time.Millisecond)
	if err := w.Append(rec); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// writeSeries writes the time series as JSON, or CSV when the file name
// ends in .csv.
func writeSeries(ts *obs.TimeSeries, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		err = ts.WriteCSV(f)
	} else {
		err = ts.WriteJSON(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// writeTrace writes the Chrome trace-event file.
func writeTrace(c *obs.ChromeTrace, meta *stats.Meta, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.WriteJSON(f, meta); err != nil {
		return err
	}
	return f.Close()
}

// reportParts renders the report from its pieces, so the detailed path
// (a full simulator) and the replay path (front end only) share it.
func reportParts(run *tracecache.Run, tc *core.TraceCache, fu *core.FillUnit) {
	fmt.Printf("benchmark %s, configuration %s\n\n", run.Benchmark, run.Config)
	fmt.Println(textplot.Table([]string{"Metric", "Value"}, [][]string{
		{"retired instructions", fmt.Sprintf("%d", run.Retired)},
		{"cycles", fmt.Sprintf("%d", run.Cycles)},
		{"IPC", fmt.Sprintf("%.3f", run.IPC())},
		{"effective fetch rate", fmt.Sprintf("%.2f", run.EffFetchRate())},
		{"cond branches", fmt.Sprintf("%d", run.CondBranches)},
		{"cond misprediction rate", fmt.Sprintf("%.2f%%", 100*run.CondMispredictRate())},
		{"promoted executed", fmt.Sprintf("%d", run.PromotedExecuted)},
		{"promoted faults", fmt.Sprintf("%d", run.PromotedFaults)},
		{"indirect jumps / misses", fmt.Sprintf("%d / %d", run.IndirectJumps, run.IndirectMisses)},
		{"avg mispredict resolution", fmt.Sprintf("%.1f cycles", run.AvgResolution())},
		{"trace-cache miss cycles", fmt.Sprintf("%d", run.TCMissCycles)},
	}))

	fmt.Println()
	bySize := run.Hist.BySize()
	labels := make([]string, len(bySize))
	vals := make([]float64, len(bySize))
	for i := range bySize {
		labels[i] = fmt.Sprintf("%2d", i)
		vals[i] = bySize[i]
	}
	fmt.Println(textplot.Histogram(
		fmt.Sprintf("Fetch width breakdown (mean %.2f)", run.Hist.Mean()), labels, vals, 50))

	endLabels := make([]string, stats.NumFetchEnds)
	endVals := make([]float64, stats.NumFetchEnds)
	byEnd := run.Hist.ByEnd()
	for e := stats.FetchEnd(0); e < stats.NumFetchEnds; e++ {
		endLabels[e] = e.String()
		endVals[e] = byEnd[e]
	}
	fmt.Println(textplot.Bars("Fetch termination conditions", endLabels, endVals, 50))

	cycLabels := make([]string, stats.NumCycleClasses)
	cycVals := make([]float64, stats.NumCycleClasses)
	for c := stats.CycleClass(0); c < stats.NumCycleClasses; c++ {
		cycLabels[c] = c.String()
		if run.Cycles > 0 {
			cycVals[c] = float64(run.Cycle[c]) / float64(run.Cycles)
		}
	}
	fmt.Println(textplot.Bars("Fetch cycle accounting (fraction of cycles)", cycLabels, cycVals, 50))

	if tc != nil {
		st := tc.Stats()
		fmt.Println(textplot.Table([]string{"Trace cache", "Value"}, [][]string{
			{"lookups", fmt.Sprintf("%d", st.Lookups)},
			{"hit rate", fmt.Sprintf("%.1f%%", 100*st.HitRate())},
			{"inserts", fmt.Sprintf("%d", st.Inserts)},
			{"evictions", fmt.Sprintf("%d", st.Evictions)},
			{"demotion invalidations", fmt.Sprintf("%d", st.Demotions)},
		}))
	}
	if fu != nil {
		st := fu.Stats()
		fmt.Println(textplot.Table([]string{"Fill unit", "Value"}, [][]string{
			{"segments built", fmt.Sprintf("%d", st.Segments)},
			{"avg segment length", fmt.Sprintf("%.2f", st.AvgSegmentLen())},
			{"promoted branch instances", fmt.Sprintf("%d", st.Promotions)},
			{"block splits (packing)", fmt.Sprintf("%d", st.Splits)},
		}))
	}
}
