// Command tcbench regenerates the tables and figures of the paper's
// evaluation.
//
// Usage:
//
//	tcbench                 # every experiment, GOMAXPROCS workers
//	tcbench -exp table2     # one experiment
//	tcbench -exp fig10,fig11
//	tcbench -j 1            # sequential (same output, more wall-clock)
//	tcbench -ffwd 10000000 -warmup 400000   # warm a functional prefix per point
//	tcbench -list
//	tcbench -warmup 400000 -insts 1000000 -progress
//	tcbench -exp fig11 -cpuprofile cpu.pprof -memprofile mem.pprof
//	tcbench -http 127.0.0.1:8080        # live /metrics /progress /debug/pprof
//	tcbench -journal runs.jsonl         # persist one record per simulation
//	tcbench -journal-report runs.jsonl  # summarize a journal, no simulation
//	tcbench -journal-report old.jsonl,new.jsonl   # diff two journals
//	tcbench -replay                     # front-end replay fast path (see DESIGN.md §9)
//
// Monitoring and journaling are opt-in, write only to stderr, files and
// HTTP, and never change the experiment output on stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tracecache"
	"tracecache/internal/buildinfo"
	"tracecache/internal/experiments"
	"tracecache/internal/journal"
	"tracecache/internal/metrics"
	"tracecache/internal/monitor"
	"tracecache/internal/obs"
	"tracecache/internal/profiler"
	"tracecache/internal/resultstore"
	"tracecache/internal/sim"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		ffwd     = flag.Uint64("ffwd", 0, "instructions to fast-forward functionally per run, warming the machine (as tcsim -ffwd)")
		warmup   = flag.Uint64("warmup", 400_000, "warmup instructions per run")
		insts    = flag.Uint64("insts", 600_000, "measured instructions per run")
		workers  = flag.Int("j", 0, "max concurrent simulations (1 = sequential; default GOMAXPROCS)")
		list     = flag.Bool("list", false, "list experiments")
		progress = flag.Bool("progress", false, "log each simulation to stderr")
		version  = flag.Bool("version", false, "print version and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		check    = flag.Bool("check", false, "run every simulation with the self-verification layer; violations fail the experiment")
		httpAddr = flag.String("http", "", "serve live monitoring on this address (/metrics, /progress, /debug/pprof), e.g. 127.0.0.1:8080")
		jPath    = flag.String("journal", "", "append one JSONL record per simulation to this file")
		jReport  = flag.String("journal-report", "", "summarize a journal file and exit (two comma-separated files: diff them)")
		replay   = flag.Bool("replay", false, "record each benchmark's committed stream functionally once and replay it for every front-end-equivalent point (cycle-domain statistics undefined on replayed points; see DESIGN.md §9)")
		sample   = flag.String("sample", "", "run the sampled headline comparison with schedule window:period:warmup[:seed]; -insts becomes the total committed-stream budget per benchmark and -exp is ignored (see DESIGN.md §10)")
		storeDir = flag.String("store", "", "consult and populate this persistent result-store directory (shared with other tcbench runs; see DESIGN.md §11)")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("tcbench"))
		return
	}
	if *jReport != "" {
		if err := journalReport(*jReport); err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		for _, e := range tracecache.Experiments() {
			fmt.Printf("%-13s %s\n              paper: %s\n", e.ID, e.Title, e.Paper)
		}
		for _, e := range tracecache.ExtensionExperiments() {
			fmt.Printf("%-13s %s (extension)\n              basis: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	var selected []tracecache.Experiment
	switch *exp {
	case "all":
		selected = tracecache.Experiments()
	case "ext":
		selected = tracecache.ExtensionExperiments()
	case "everything":
		selected = append(tracecache.Experiments(), tracecache.ExtensionExperiments()...)
	default:
		for _, id := range strings.Split(*exp, ",") {
			e, ok := tracecache.ExperimentByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "tcbench: unknown experiment %q (try -list)\n", id)
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}

	stopProf, err := profiler.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
		os.Exit(1)
	}

	r := tracecache.NewRunner(*warmup, *insts)
	r.FastForward = *ffwd
	r.Workers = *workers
	r.Check = *check
	r.Replay = *replay
	if *storeDir != "" {
		store, err := resultstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
			os.Exit(1)
		}
		r.Store = store
	}
	if *progress {
		r.Log = os.Stderr
	}
	if *sample != "" {
		if *replay {
			fmt.Fprintln(os.Stderr, "tcbench: -sample cannot be combined with -replay (sampled runs need the full machine)")
			os.Exit(1)
		}
		p, err := sim.ParseSamplingSpec(*sample)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
			os.Exit(1)
		}
		r.Sampling = p
		selected = []tracecache.Experiment{{
			ID:    "sampled",
			Title: fmt.Sprintf("Promotion/packing headline comparison, statistically sampled at %d insts/benchmark", *insts),
			Paper: "paper-scale counterpart of Figures 10 and 11, with 95% confidence intervals",
			Run:   experiments.SampledComparison,
		}}
	}

	// Monitoring and journaling ride on the runner's instrumentation
	// hooks; with both flags absent every hook stays nil.
	var (
		prog   *monitor.Progress
		monSrv *monitor.Server
		jw     *journal.Writer
	)
	if *httpAddr != "" || *jPath != "" {
		reg := metrics.NewRegistry()
		m := experiments.InstrumentRunner(reg)
		r.Metrics = m
		if r.Store != nil {
			r.Store.Metrics = resultstore.InstrumentStore(reg)
		}
		var listeners []func(experiments.RunEvent)
		if *jPath != "" {
			var err error
			jw, err = journal.OpenFile(*jPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
				os.Exit(1)
			}
			listeners = append(listeners, journal.RunnerListener(jw, func(err error) {
				fmt.Fprintf(os.Stderr, "tcbench: journal: %v\n", err)
			}))
		}
		if *httpAddr != "" {
			prog = monitor.NewProgress(r.Workers, m.Sim.Insts.Value)
			listeners = append(listeners, prog.Listener())
			sink := metrics.NewBusSink(reg)
			r.NewObserver = func() *obs.Bus {
				b := obs.NewBus()
				b.Attach(sink)
				return b
			}
			monSrv = &monitor.Server{Registry: reg, Progress: prog}
			addr, err := monSrv.Start(*httpAddr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "tcbench: monitoring on http://%s (/metrics /progress /debug/pprof)\n", addr)
		}
		r.OnRun = experiments.MultiListener(listeners...)
	}

	runErr := tracecache.RunExperiments(r, selected, func(e tracecache.Experiment, out string) {
		fmt.Printf("==================================================================\n")
		fmt.Printf("%s: %s\n", e.ID, e.Title)
		fmt.Printf("paper: %s\n", e.Paper)
		fmt.Printf("------------------------------------------------------------------\n")
		fmt.Println(out)
	})
	if prog != nil {
		prog.Finish()
	}
	if monSrv != nil {
		_ = monSrv.Close()
	}
	if jw != nil {
		if err := jw.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: journal: %v\n", err)
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
		os.Exit(1)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "tcbench: %v\n", runErr)
		os.Exit(1)
	}
}

// journalReport renders a journal summary (one path) or a journal diff
// (two comma-separated paths) to stdout without running any simulation.
func journalReport(spec string) error {
	paths := strings.Split(spec, ",")
	for i := range paths {
		paths[i] = strings.TrimSpace(paths[i])
	}
	switch len(paths) {
	case 1:
		recs, truncated, err := journal.ReadFile(paths[0])
		if err != nil {
			return err
		}
		fmt.Print(journal.Report(recs, truncated))
		return nil
	case 2:
		a, truncA, err := journal.ReadFile(paths[0])
		if err != nil {
			return err
		}
		b, truncB, err := journal.ReadFile(paths[1])
		if err != nil {
			return err
		}
		if truncA || truncB {
			fmt.Fprintln(os.Stderr, "tcbench: warning: journal tail truncated (unterminated final line skipped)")
		}
		fmt.Print(journal.Diff(a, b))
		return nil
	default:
		return fmt.Errorf("-journal-report takes one file, or two comma-separated files to diff")
	}
}
