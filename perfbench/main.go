// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the simulator for a fixed host time from a single
// process, checks every simulated result, and prints its metrics by name
// and unit; the last line of standard output is one JSON object.
//
//	go run . -workload suite-detailed -seed 0 -seconds 30 -trace 0
//
// Every workload runs the paper's own programs, so every simulated result
// is checked against the expected data stored under expected/; -seed does
// not change the work. -program-seed offsets the programs' generator
// seeds instead; see fidelity below for what it shows.
//
// An untraced run (-trace 0) prints the end-to-end metrics. A traced run
// (-trace 1) runs an untraced and then a traced half of the timed phase,
// writes the spans and a CPU profile of the traced half (read back with
// go tool pprof), drives every layer alone through the layer probes, and
// prints the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// Workload names.
const (
	wSuite   = "suite-detailed"
	wReplay  = "frontend-replay"
	wSampled = "sampled-paperscale"
)

const (
	// A run sets up at least minSetups times and until the setups have
	// taken setupCPU of host CPU time (at most maxSetups); setup_s is their
	// median.
	minSetups = 9
	maxSetups = 40
	setupCPU  = 2 * time.Second
	minReps   = 3 // repetitions the timed phase runs at least
)

type options struct {
	workload    string
	seed        int64 // names the run; the work is the same at every seed
	programSeed int64 // offsets the fast-mode workloads' generator seeds
	seconds     float64
	traced      bool
	out         string
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		o     options
		trace int
		regen string
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+wSuite+", "+wReplay+" or "+wSampled)
	flag.Int64Var(&o.seed, "seed", 0, "run seed; it does not change the work: every workload runs the paper's programs, whose results are stored under expected/")
	flag.Int64Var(&o.programSeed, "program-seed", defaultSeed, "offsets every generator seed and seeds the sampling schedule in "+wReplay+" and "+wSampled+"; at any value but 0 the expected data and fidelity truth are recomputed, and some truth points break their fidelity contract (see README.md)")
	flag.Float64Var(&o.seconds, "seconds", 30, "host seconds the timed phase measures")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for a traced run's span log and CPU profile")
	flag.StringVar(&regen, "regen", "", "recompute the default program seed's expected data into this directory (the benchmark's expected/) and exit")
	flag.Parse()
	o.traced = trace == 1

	var err error
	if regen != "" {
		err = regenerate(regen)
	} else {
		var res *result
		if res, err = run(o); err == nil {
			line, jerr := json.Marshal(res)
			if jerr != nil {
				err = jerr
			} else {
				fmt.Println(string(line))
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed int64) (workloadRun, error) {
	switch name {
	case wSuite:
		return &suite{}, nil
	case wReplay:
		return newFrontend(seed)
	case wSampled:
		return &sampled{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", name, wSuite, wReplay, wSampled)
}

// repTiming is one repetition of the timed phase.
type repTiming struct {
	wall, cpu time.Duration
	kernelMs  float64 // reference kernel around the repetition (mean of before and after)
	steal     float64 // host steal share during the repetition
	insts     uint64
	rssMB     float64 // peak RSS during the repetition
}

// phase is one timed phase: repetitions back to back, the reference
// kernel timed between them.
type phase struct {
	reps     []repTiming
	stats    repStats
	from, to int64   // tracer clock
	steal    float64 // host steal share over the phase
	kernelMs float64 // median reference kernel sample
	// Allocation and collection over the phase.
	allocBytes, mallocs uint64
	gcs                 uint32
}

func timedPhase(w workloadRun, clock *hostClock, tr *tracer, lg *ledger, seconds float64) (phase, error) {
	var ph phase
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steal := startSteal()
	if tr != nil {
		ph.from = int64(time.Since(tr.t0))
	}
	nk := len(clock.samples)
	start := time.Now()
	k0 := clock.sample()
	for len(ph.reps) < minReps || time.Since(start).Seconds() < seconds {
		if err := resetPeakRSS(); err != nil {
			return ph, err
		}
		t, c, sm := time.Now(), cpuNow(), startSteal()
		tr.begin("rep", false)
		st := w.rep(tr, lg)
		tr.end()
		r := repTiming{wall: time.Since(t), cpu: cpuNow() - c, steal: sm.frac(), insts: st.insts, rssMB: peakRSSMB()}
		k1 := clock.sample()
		r.kernelMs, k0 = (k0+k1)/2, k1
		ph.reps = append(ph.reps, r)
		ph.stats.add(st)
	}
	if tr != nil {
		ph.to = int64(time.Since(tr.t0))
	}
	ph.steal = steal.frac()
	runtime.ReadMemStats(&m1)
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.gcs = m1.NumGC - m0.NumGC
	ph.kernelMs = median(clock.samples[nk:])
	return ph, nil
}

// rates returns the per-repetition throughput in Minst/s: adjusted (see
// scale in host.go), over raw CPU time, and over wall time.
func (ph *phase) rates() (adj, raw, wall []float64) {
	for _, r := range ph.reps {
		adj = append(adj, float64(r.insts)/scale(r.cpu, r.steal, r.kernelMs)/1e6)
		raw = append(raw, float64(r.insts)/r.cpu.Seconds()/1e6)
		wall = append(wall, float64(r.insts)/r.wall.Seconds()/1e6)
	}
	return adj, raw, wall
}

// peakRSSMB is the median over repetitions of each one's peak RSS.
func (ph *phase) peakRSSMB() float64 {
	var xs []float64
	for _, r := range ph.reps {
		xs = append(xs, r.rssMB)
	}
	return median(xs)
}

// medianRepSeconds is the median adjusted repetition time.
func (ph *phase) medianRepSeconds() float64 {
	var xs []float64
	for _, r := range ph.reps {
		xs = append(xs, scale(r.cpu, r.steal, r.kernelMs))
	}
	return median(xs)
}

func run(o options) (*result, error) {
	w, err := newWorkload(o.workload, o.programSeed)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	clock := newHostClock(tr)
	lg := &ledger{}
	fmt.Printf("workload %s, seed %d, program seed %d, %.0f s timed, traced=%v, GOMAXPROCS=%d\n",
		o.workload, o.seed, o.programSeed, o.seconds, o.traced, runtime.GOMAXPROCS(0))

	// Set up several times; the last setup's inputs feed the timed phase.
	// Each setup starts from a collected heap and is followed by a kernel
	// sample. Every setup is scaled by the median of all those samples and
	// by the steal share over all setups: one kernel sample is a noisy
	// measure of host speed over a setup of under a second, and /proc/stat
	// counts steal in 10 ms ticks, too coarse for one short setup. Nine
	// setups at least keep frontend-replay's setup_s (about 0.9 s each)
	// within a tenth from run to run (STEADINESS.md).
	var (
		cpus  []time.Duration
		total time.Duration
	)
	sm := startSteal()
	nk := len(clock.samples)
	clock.sample()
	for len(cpus) < minSetups || (total < setupCPU && len(cpus) < maxSetups) {
		runtime.GC()
		c := cpuNow()
		tr.begin("setup", false)
		err := w.setup(tr)
		tr.end()
		cpus = append(cpus, cpuNow()-c)
		total += cpus[len(cpus)-1]
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		clock.sample()
	}
	steal, kernel := sm.frac(), median(clock.samples[nk:])
	var setups, rawSetups []float64
	for _, c := range cpus {
		setups = append(setups, scale(c, steal, kernel))
		rawSetups = append(rawSetups, c.Seconds())
	}
	fmt.Printf("setup_s %.4f s (median of %d, adjusted; raw CPU %.4f s, raw spread %.1f%%, median kernel %.3f ms of %d samples, steal %.1f%%)\n",
		median(setups), len(setups), median(rawSetups), 100*spread(rawSetups), kernel, len(clock.samples)-nk, 100*steal)

	// Untimed: expected data and fidelity truth, then the workload's own
	// truth points, which also fix the digests the timed repetitions must
	// reproduce.
	if err := w.prepare(lg); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	fid := fidelity{lg: lg, seed: o.programSeed}
	switch w := w.(type) {
	case *frontend:
		fid.replay(w)
	case *sampled:
		fid.sampled(w)
	}

	var res *result
	if o.traced {
		res, err = tracedRun(o, w, clock, tr, lg)
	} else {
		res, err = untracedRun(o, w, clock, lg, setups)
	}
	if err != nil {
		return nil, err
	}
	if err := fid.complete(); err != nil {
		return nil, err
	}
	if !o.traced {
		res.Metrics["eff_err_pct"] = metricValue{fid.effErr, "%"}
		res.Metrics["ipc_err_pct"] = metricValue{fid.ipcErr, "%"}
		res.Metrics["ipc_ci_halfwidth_pct"] = metricValue{fid.ciHalf, "%"}
		fmt.Println("end-to-end metrics:")
		for _, d := range endToEnd {
			fmt.Printf("  %-22s %12.4f %s\n", d.name, res.Metrics[d.name].Value, res.Metrics[d.name].Unit)
		}
	}
	res.Attempted, res.Failed = lg.attempted, lg.failed
	res.Correct = lg.failed == 0 && lg.attempted > 0
	fmt.Printf("operations: %d failed / %d attempted\n", lg.failed, lg.attempted)
	for _, f := range lg.first {
		fmt.Printf("  failed: %s\n", f)
	}
	return res, nil
}

// fidelity gathers the end-to-end fidelity metrics and gates the
// fidelity contracts: every truth point's verdict counts as an operation,
// and every violation as a failed one. The metrics are the mean errors
// over the truth points at the run's program seed; at the default program
// seed, the paper's programs, the detailed truth is stored and the
// contracts hold. At other program seeds some truth points break their
// contracts (the envelopes were calibrated on the paper's programs), so
// such a run reports failed operations: a known defect of the replay and
// sampling modes, left standing and recorded in README.md.
type fidelity struct {
	lg                     *ledger
	seed                   int64 // program seed
	effErr, ipcErr, ciHalf float64
	haveReplay, haveSample bool
}

func (f *fidelity) replay(w *frontend) {
	pts := w.fidelity(f.lg)
	f.gate(pts)
	reportTruth(fmt.Sprintf("frontend-replay truth points, program seed %d (effective fetch rate)", w.seed), pts)
	f.effErr, _ = meanErr(pts)
	f.haveReplay = true
}

func (f *fidelity) sampled(w *sampled) {
	pts := w.fidelity(f.lg)
	f.gate(pts)
	reportTruth(fmt.Sprintf("sampled-paperscale truth points, program seed %d (IPC)", w.seed), pts)
	f.ipcErr, f.ciHalf = meanErr(pts)
	f.haveSample = true
}

func (f *fidelity) gate(pts []truthPoint) {
	for _, p := range pts {
		f.lg.op("fidelity contract "+p.key, p.violation)
	}
}

// complete computes whichever metrics the run's workload did not supply,
// from the owning workload at the same program seed.
func (f *fidelity) complete() error {
	if !f.haveReplay {
		w, err := newFrontend(f.seed)
		if err != nil {
			return err
		}
		if err := w.setup(nil); err != nil {
			return fmt.Errorf("replay fidelity setup: %w", err)
		}
		if err := w.prepare(f.lg); err != nil {
			return fmt.Errorf("replay fidelity: %w", err)
		}
		f.replay(w)
	}
	if !f.haveSample {
		w := &sampled{seed: f.seed}
		if err := w.setup(nil); err != nil {
			return fmt.Errorf("sampled fidelity setup: %w", err)
		}
		if err := w.prepare(f.lg); err != nil {
			return fmt.Errorf("sampled fidelity: %w", err)
		}
		f.sampled(w)
	}
	return nil
}

// meanErr averages the truth points' errors and CI half-widths.
func meanErr(pts []truthPoint) (errPct, ciPct float64) {
	if len(pts) == 0 {
		return 0, 0
	}
	for _, p := range pts {
		errPct += p.errPct
		ciPct += p.ciPct
	}
	return errPct / float64(len(pts)), ciPct / float64(len(pts))
}

func reportTruth(title string, pts []truthPoint) {
	var outside int
	for _, p := range pts {
		if p.violation != nil {
			outside++
		}
	}
	e, ci := meanErr(pts)
	fmt.Printf("%s: mean error %.3f%%", title, e)
	if ci > 0 {
		fmt.Printf(", mean CI half-width %.3f%%", ci)
	}
	fmt.Printf(", %d of %d outside the contract (each a failed operation)\n", outside, len(pts))
	for _, p := range pts {
		if p.violation != nil {
			fmt.Printf("  %s: error %.2f%%: %v\n", p.key, p.errPct, p.violation)
		}
	}
}

func untracedRun(o options, w workloadRun, clock *hostClock, lg *ledger, setups []float64) (*result, error) {
	ph, err := timedPhase(w, clock, nil, lg, o.seconds)
	if err != nil {
		return nil, err
	}
	rss := ph.peakRSSMB()
	adj, raw, wall := ph.rates()
	printPhase("timed phase", &ph)
	fmt.Printf("  base: %d insts per repetition, %d repetitions, median adjusted repetition %.3f s\n",
		ph.reps[0].insts, len(ph.reps), ph.medianRepSeconds())
	fmt.Printf("host audit: host.raw_minsts_per_s %.4f (CPU time; raw spread %.1f%%, adjusted spread %.1f%%; wall-time rate %.4f, spread %.1f%%), host.ref_kernel_ms %.3f (nominal %.1f), host.steal_pct %.2f\n",
		median(raw), 100*spread(raw), 100*spread(adj), median(wall), 100*spread(wall), ph.kernelMs, refNominalMs, 100*ph.steal)
	return &result{Metrics: map[string]metricValue{
		"minsts_per_s": {median(adj), "Minst/s"},
		"setup_s":      {median(setups), "s"},
		"peak_rss_mb":  {rss, "MB"},
	}}, nil
}

func printPhase(name string, ph *phase) {
	adj, raw, wall := ph.rates()
	fmt.Printf("%s: %d repetitions, median kernel %.3f ms\n", name, len(ph.reps), ph.kernelMs)
	for i, r := range ph.reps {
		fmt.Printf("  rep %2d: %7.3f s wall, %7.3f s CPU, kernel %.3f ms, steal %4.1f%%; %.4f Minst/s adjusted, %.4f CPU, %.4f wall; peak RSS %.1f MB\n",
			i, r.wall.Seconds(), r.cpu.Seconds(), r.kernelMs, 100*r.steal, adj[i], raw[i], wall[i], r.rssMB)
	}
}

func tracedRun(o options, w workloadRun, clock *hostClock, tr *tracer, lg *ledger) (*result, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))

	// Untraced half, then the traced half under the CPU profiler.
	untraced, err := timedPhase(w, clock, nil, lg, o.seconds/2)
	if err != nil {
		return nil, err
	}
	printPhase("untraced half", &untraced)
	profPath := base + "-cpu.pprof"
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	tr.labels = true
	traced, err := timedPhase(w, clock, tr, lg, o.seconds/2)
	tr.labels = false
	pprof.SetGoroutineLabels(tr.ctxs[0])
	pprof.StopCPUProfile()
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	printPhase("traced half", &traced)

	ps, err := runProbes(tr)
	if err != nil {
		return nil, err
	}
	spansPath := base + "-spans.json"
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	prof, err := readProfile(profPath)
	if err != nil {
		return nil, err
	}
	fmt.Printf("wrote %s and %s\n", spansPath, profPath)

	spans := tr.snapshot()
	m := map[string]metricValue{}
	set := func(name string, v float64, base string) {
		m[name] = metricValue{Value: v}
		if base != "" {
			fmt.Printf("  %-30s %14.4f  (%s)\n", name, v, base)
		}
	}
	fmt.Println("per-layer metrics:")
	reps := float64(len(traced.reps))
	st := traced.stats
	insts := float64(st.insts)

	// workload: program generation per setup.
	var gens []float64
	for i, s := range spans {
		if s.Name != "setup" || s.Parent != -1 {
			continue
		}
		var ns int64
		for _, c := range spans {
			if c.Parent == i && c.Name == "workload.generate" {
				ns += c.End - c.Start
			}
		}
		gens = append(gens, float64(ns)/1e6)
	}
	set("workload.generate_ms", median(gens), fmt.Sprintf("median of %d setups", len(gens)))

	// experiments: points and the timed phase outside point spans.
	self := selfTimes(spans, traced.from, traced.to)
	var repNs, pointNs int64
	for _, s := range spans {
		if s.Start < traced.from || s.End > traced.to {
			continue
		}
		switch s.Name {
		case "rep":
			repNs += s.End - s.Start
		case "experiments.point", "sim.replay", "sampling.run":
			pointNs += s.End - s.Start
		}
	}
	set("experiments.points", float64(st.points)/reps, fmt.Sprintf("%d points over %.0f repetitions", st.points, reps))
	set("experiments.memo_hits", float64(st.memoHits)/reps, fmt.Sprintf("%d memo hits over %.0f repetitions", st.memoHits, reps))
	set("experiments.overhead_pct", pct(float64(repNs-pointNs), float64(repNs)),
		fmt.Sprintf("%.3f s of %.3f s repetition time outside point spans", float64(repNs-pointNs)/1e9, float64(repNs)/1e9))

	// sim: per-call costs from the probes, counts from the workload.
	pr := ps.results
	det := pr["sim.detailed"]
	set("sim.detailed_ns_per_inst", det.nsPerCall(), fmt.Sprintf("probe: %d insts in %.3f s", det.calls, float64(det.ns)/1e9))
	set("sim.ns_per_cycle", float64(det.ns)/float64(ps.detailedCycles), fmt.Sprintf("probe: %d cycles", ps.detailedCycles))
	set("sim.new_ms", pr["sim.new"].nsPerCall()/1e6, fmt.Sprintf("probe: %d simulators", pr["sim.new"].calls))
	set("sim.replay_ns_per_inst", pr["sim.replay"].nsPerCall(), fmt.Sprintf("probe: %d insts", pr["sim.replay"].calls))
	set("sim.ffwd_ns_per_inst", pr["sim.ffwd"].nsPerCall(), fmt.Sprintf("probe: %d insts", pr["sim.ffwd"].calls))
	set("sim.insts", insts/reps, fmt.Sprintf("per repetition, %d repetitions", len(traced.reps)))
	set("sim.cycles", float64(st.cycles)/reps, "simulated cycles per repetition")
	set("sim.wrong_path_insts", float64(st.wrongPath)/reps, "wrong-path insts fetched per repetition")

	// core, bpred, cache, exec, trace: the layer probes.
	fill, look := pr["core.fill"], pr["core.tc_lookup"]
	set("core.fill_ns_per_inst", fill.nsPerCall(), fmt.Sprintf("probe: %d insts", fill.calls))
	set("core.tc_lookup_ns", look.nsPerCall(), fmt.Sprintf("probe: %d lookups", look.calls))
	set("core.tc_lookups", float64(look.calls), "probe streams")
	set("core.tc_hit_rate", float64(look.hits)/float64(look.calls), fmt.Sprintf("probe: %d hits", look.hits))
	set("core.segments", float64(fill.hits), "probe streams")
	bp := pr["bpred"]
	set("bpred.ns_per_pred", bp.nsPerCall(), fmt.Sprintf("probe: %d predictions, %d wrong", bp.calls, bp.misses))
	set("bpred.cond_branches", float64(bp.calls/2), "probe streams")
	ca := pr["cache"]
	set("cache.ns_per_access", ca.nsPerCall(), fmt.Sprintf("probe: %d accesses, %d misses", ca.calls, ca.misses))
	set("cache.l1i_misses", float64(ps.l1iMisses), "probe streams")
	set("exec.ns_per_inst", pr["exec"].nsPerCall(), fmt.Sprintf("probe: %d insts", pr["exec"].calls))
	set("trace.bytes_per_inst", float64(ps.encodedBytes)/float64(ps.streamInsts), fmt.Sprintf("probe: %d bytes", ps.encodedBytes))
	set("trace.encode_ns_per_inst", pr["trace.encode"].nsPerCall(), fmt.Sprintf("probe: %d records", pr["trace.encode"].calls))
	set("trace.decode_ns_per_inst", pr["trace.decode"].nsPerCall(), fmt.Sprintf("probe: %d records", pr["trace.decode"].calls))

	// sampling: the workload's windows, the probe's driver overhead.
	set("sampling.windows", float64(st.windows)/reps, "windows per repetition")
	frac := 0.0
	if st.windows > 0 {
		frac = float64(st.sampledDetailInsts) / insts
	}
	set("sampling.detailed_frac", frac, fmt.Sprintf("%d detailed of %d covered insts", st.sampledDetailInsts, st.insts))
	set("sampling.overhead_pct", ps.samplingOverheadPct, fmt.Sprintf("probe: %d windows", pr["sampling"].calls))

	// runtime: allocation and collection over the traced half.
	set("runtime.alloc_bytes_per_inst", float64(traced.allocBytes)/insts, fmt.Sprintf("%d bytes", traced.allocBytes))
	set("runtime.allocs_per_kinst", float64(traced.mallocs)/(insts/1000), fmt.Sprintf("%d objects", traced.mallocs))
	set("runtime.gc_cycles", float64(traced.gcs)/reps, fmt.Sprintf("%d cycles over %.0f repetitions", traced.gcs, reps))

	// CPU profile of the traced half, flat samples grouped by package.
	for _, l := range profiledLayers {
		set(l+".cpu_share_pct", pct(float64(prof.byLayer[l]), float64(prof.total)), fmt.Sprintf("%.3f s CPU", float64(prof.byLayer[l])/1e9))
	}

	// host audit.
	uadj, uraw, _ := untraced.rates()
	set("host.raw_minsts_per_s", median(uraw), fmt.Sprintf("untraced half; adjusted %.4f, raw spread %.1f%%, adjusted spread %.1f%%",
		median(uadj), 100*spread(uraw), 100*spread(uadj)))
	set("host.ref_kernel_ms", untraced.kernelMs, fmt.Sprintf("fastest of five per sample, median over the untraced half; nominal %.1f", refNominalMs))
	set("host.steal_pct", 100*untraced.steal, "/proc/stat steal over the untraced half")
	set("host.tracing_overhead_pct", 100*(traced.medianRepSeconds()/untraced.medianRepSeconds()-1),
		fmt.Sprintf("median adjusted repetition %.4f s traced vs %.4f s untraced", traced.medianRepSeconds(), untraced.medianRepSeconds()))
	gap := reconcile(self, prof, traced.to-traced.from)
	set("host.profile_gap_pp", gap, "largest span self-time share minus CPU-profile share")

	printProbes(os.Stdout, ps)
	for _, d := range perLayer {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", d.name)
		}
		m[d.name] = metricValue{Value: v.Value, Unit: d.unit}
	}
	return &result{Metrics: m}, nil
}

// reconcile prints, per span name, the share of the traced half each
// span's self time takes beside the share of CPU-profile samples carrying
// its label, and returns the largest disagreement in percentage points.
// CPU time also counts the collector's background workers on other
// threads (unlabelled), so some disagreement is expected.
func reconcile(self map[string]int64, prof *profileShares, total int64) float64 {
	names := map[string]bool{}
	for n := range self {
		names[n] = true
	}
	for n := range prof.bySpan {
		names[n] = true
	}
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	var covered int64
	for _, v := range self {
		covered += v
	}
	fmt.Println("span self time vs CPU profile (traced half):")
	fmt.Printf("  %-24s %10s %10s %8s\n", "span", "self %", "profile %", "gap pp")
	var worst float64
	for _, n := range sorted {
		s := pct(float64(self[n]), float64(total))
		if n == "" {
			s = pct(float64(total-covered), float64(total))
		}
		p := pct(float64(prof.bySpan[n]), float64(prof.total))
		label := n
		if n == "" {
			label = "(outside spans)"
		}
		fmt.Printf("  %-24s %10.2f %10.2f %8.2f\n", label, s, p, p-s)
		worst = max(worst, abs(p-s))
	}
	var layers []string
	for l := range prof.byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return prof.byLayer[layers[i]] > prof.byLayer[layers[j]] })
	var parts []string
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", l, pct(float64(prof.byLayer[l]), float64(prof.total))))
	}
	fmt.Printf("CPU profile by package (%.3f s CPU): %s\n", float64(prof.total)/1e9, strings.Join(parts, ", "))
	return worst
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}
