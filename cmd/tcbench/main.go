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
//	tcbench -warmup 400000 -insts 1000000 -progress   # one stderr line per simulation request
//	tcbench -exp fig11 -cpuprofile cpu.pprof -memprofile mem.pprof
//	tcbench -journal runs.jsonl         # persist one record per simulation request
//	tcbench -journal-report runs.jsonl  # summarize a journal, no simulation
//	tcbench -journal-report old.jsonl,new.jsonl   # diff two journals
//	tcbench -replay                     # front-end replay fast path (see DESIGN.md §9)
//
// -progress and -journal are opt-in, write only to stderr and files, and
// never change the experiment output on stdout. Both listen to the
// runner's RunEvents and report the same requests, result-store errors
// included.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tracecache"
	"tracecache/internal/buildinfo"
	"tracecache/internal/experiments"
	"tracecache/internal/journal"
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
		progress = flag.Bool("progress", false, "print one stderr line per resolved simulation request: label, provenance, wall time, errors")
		version  = flag.Bool("version", false, "print version and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		check    = flag.Bool("check", false, "run every simulation with the self-verification layer; violations fail the experiment")
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

	// Progress lines and the journal listen to the runner's RunEvents;
	// with both flags absent OnRun stays nil.
	var (
		jw        *journal.Writer
		listeners []func(experiments.RunEvent)
	)
	if *jPath != "" {
		jw, err = journal.OpenFile(*jPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tcbench: %v\n", err)
			os.Exit(1)
		}
		listeners = append(listeners, journal.RunnerListener(jw, func(err error) {
			fmt.Fprintf(os.Stderr, "tcbench: journal: %v\n", err)
		}))
	}
	if *progress {
		listeners = append(listeners, printProgress)
	}
	r.OnRun = experiments.MultiListener(listeners...)

	runErr := tracecache.RunExperiments(r, selected, func(e tracecache.Experiment, out string) {
		fmt.Printf("==================================================================\n")
		fmt.Printf("%s: %s\n", e.ID, e.Title)
		fmt.Printf("paper: %s\n", e.Paper)
		fmt.Printf("------------------------------------------------------------------\n")
		fmt.Println(out)
	})
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

// printProgress prints one stderr line per resolved request (RunDone):
// its label, provenance ("failed" for a failed request), slot wall time,
// and any error, the request's own or the result store's, quoted so that
// a multi-line error stays on its line. Each line is one Fprintf to
// os.Stderr, whose writes do not interleave, so concurrent workers need
// no lock.
func printProgress(ev experiments.RunEvent) {
	if ev.Phase != experiments.RunDone {
		return
	}
	prov, errs := ev.Provenance, ""
	if ev.Err != nil {
		prov, errs = "failed", fmt.Sprintf(" error=%q", ev.Err)
	}
	if ev.StoreErr != nil {
		errs += fmt.Sprintf(" storeError=%q", ev.StoreErr)
	}
	fmt.Fprintf(os.Stderr, "tcbench: done %s %s %v%s\n", ev.Key, prov, ev.Wall.Round(time.Millisecond), errs)
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
