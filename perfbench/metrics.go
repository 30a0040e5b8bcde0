package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json at
// the repository root lists the same metrics (a test keeps them equal);
// the fields it cannot hold live here.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// moves names the end-to-end metric a per-layer metric should move,
	// and where the workloads on which it shows (or stays flat).
	moves, where string
}

// endToEnd are the metrics an untraced run prints. Host times are the
// process's CPU time, corrected for steal and scaled by the reference
// kernel (see host.go).
var endToEnd = []metricDef{
	// Committed instructions simulated, replayed or covered by the
	// sampled extent per host second; the median over the timed phase's
	// repetitions.
	{name: "minsts_per_s", unit: "Minst/s", better: "higher", bound: 0.25},
	// Program generation; in frontend-replay also recording and decoding
	// the retired streams.
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	// Median over the timed repetitions of each one's getrusage max RSS
	// (the high-water mark is reset before every repetition).
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	// Mean relative |replay - detailed| effective fetch rate over
	// frontend-replay's truth points (see fidelity in main.go).
	{name: "eff_err_pct", unit: "%", better: "lower", bound: 0.05},
	// Mean relative |sampled - detailed| IPC, and mean 95% CI half-width
	// relative to the IPC estimate, over sampled-paperscale's truth
	// points.
	{name: "ipc_err_pct", unit: "%", better: "lower", bound: 0.05},
	{name: "ipc_ci_halfwidth_pct", unit: "%", better: "lower", bound: 0.05},
}

const (
	allWorkloads  = "suite-detailed, frontend-replay, sampled-paperscale"
	detailedLoops = "suite-detailed; flat on frontend-replay"
)

// perLayer are the metrics a traced run prints. Costs per call come from
// the layer probes (probes.go), counts per repetition and shares from the
// traced timed phase.
var perLayer = []metricDef{
	{name: "workload.generate_ms", unit: "ms", better: "lower", moves: "setup_s", where: allWorkloads + "; largest on sampled-paperscale"},

	{name: "experiments.points", unit: "count", better: "lower", moves: "minsts_per_s", where: "suite-detailed"},
	{name: "experiments.memo_hits", unit: "count", better: "higher", moves: "minsts_per_s", where: "suite-detailed"},
	{name: "experiments.overhead_pct", unit: "%", better: "lower", moves: "minsts_per_s", where: "suite-detailed"},

	{name: "sim.detailed_ns_per_inst", unit: "ns", better: "lower", moves: "minsts_per_s", where: "suite-detailed; flat on frontend-replay and sampled-paperscale"},
	{name: "sim.ns_per_cycle", unit: "ns", better: "lower", moves: "minsts_per_s", where: "suite-detailed; flat on frontend-replay and sampled-paperscale"},
	{name: "sim.new_ms", unit: "ms", better: "lower", moves: "minsts_per_s", where: "suite-detailed; flat on frontend-replay and sampled-paperscale"},
	{name: "sim.replay_ns_per_inst", unit: "ns", better: "lower", moves: "minsts_per_s", where: "frontend-replay; flat on suite-detailed and sampled-paperscale"},
	{name: "sim.ffwd_ns_per_inst", unit: "ns", better: "lower", moves: "minsts_per_s", where: "sampled-paperscale; flat on suite-detailed and frontend-replay"},
	{name: "sim.insts", unit: "count", better: "higher", moves: "minsts_per_s", where: allWorkloads},
	{name: "sim.cycles", unit: "count", better: "lower", moves: "minsts_per_s", where: "suite-detailed, sampled-paperscale; zero on frontend-replay"},
	{name: "sim.wrong_path_insts", unit: "count", better: "lower", moves: "minsts_per_s", where: "suite-detailed; zero on frontend-replay"},

	{name: "engine.cpu_share_pct", unit: "%", better: "lower", moves: "minsts_per_s", where: detailedLoops},
	{name: "fetch.cpu_share_pct", unit: "%", better: "lower", moves: "minsts_per_s", where: "suite-detailed"},

	{name: "core.fill_ns_per_inst", unit: "ns", better: "lower", moves: "minsts_per_s", where: "frontend-replay (largest share), suite-detailed"},
	{name: "core.tc_lookup_ns", unit: "ns", better: "lower", moves: "minsts_per_s", where: "frontend-replay (largest share), suite-detailed"},
	{name: "core.tc_lookups", unit: "count", better: "lower", moves: "minsts_per_s", where: "frontend-replay, suite-detailed"},
	{name: "core.tc_hit_rate", unit: "ratio", better: "higher", moves: "minsts_per_s", where: "frontend-replay, suite-detailed"},
	{name: "core.segments", unit: "count", better: "lower", moves: "minsts_per_s", where: "frontend-replay, suite-detailed"},

	{name: "bpred.ns_per_pred", unit: "ns", better: "lower", moves: "minsts_per_s", where: "frontend-replay, suite-detailed; little on sampled-paperscale"},
	{name: "bpred.cond_branches", unit: "count", better: "lower", moves: "minsts_per_s", where: "frontend-replay, suite-detailed"},

	{name: "cache.ns_per_access", unit: "ns", better: "lower", moves: "minsts_per_s", where: "frontend-replay, suite-detailed"},
	{name: "cache.l1i_misses", unit: "count", better: "lower", moves: "minsts_per_s", where: "frontend-replay, suite-detailed"},

	{name: "exec.ns_per_inst", unit: "ns", better: "lower", moves: "minsts_per_s", where: "sampled-paperscale; none on frontend-replay"},

	{name: "trace.bytes_per_inst", unit: "B/inst", better: "lower", moves: "peak_rss_mb", where: "frontend-replay; none elsewhere"},
	{name: "trace.encode_ns_per_inst", unit: "ns", better: "lower", moves: "setup_s", where: "frontend-replay; none elsewhere"},
	{name: "trace.decode_ns_per_inst", unit: "ns", better: "lower", moves: "setup_s", where: "frontend-replay; none elsewhere"},

	{name: "sampling.windows", unit: "count", better: "lower", moves: "ipc_ci_halfwidth_pct", where: "sampled-paperscale"},
	{name: "sampling.detailed_frac", unit: "ratio", better: "lower", moves: "minsts_per_s", where: "sampled-paperscale"},
	{name: "sampling.overhead_pct", unit: "%", better: "lower", moves: "minsts_per_s", where: "sampled-paperscale"},

	{name: "runtime.alloc_bytes_per_inst", unit: "B/inst", better: "lower", moves: "peak_rss_mb", where: allWorkloads},
	{name: "runtime.allocs_per_kinst", unit: "count/kinst", better: "lower", moves: "minsts_per_s", where: allWorkloads},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: "minsts_per_s", where: allWorkloads},

	{name: "sim.cpu_share_pct", unit: "%", better: "lower", moves: "minsts_per_s", where: allWorkloads},
	{name: "core.cpu_share_pct", unit: "%", better: "lower", moves: "minsts_per_s", where: "frontend-replay, suite-detailed"},
	{name: "bpred.cpu_share_pct", unit: "%", better: "lower", moves: "minsts_per_s", where: "frontend-replay, suite-detailed"},
	{name: "cache.cpu_share_pct", unit: "%", better: "lower", moves: "minsts_per_s", where: "frontend-replay, suite-detailed"},
	{name: "exec.cpu_share_pct", unit: "%", better: "lower", moves: "minsts_per_s", where: "sampled-paperscale, suite-detailed"},
	{name: "trace.cpu_share_pct", unit: "%", better: "lower", moves: "minsts_per_s", where: "frontend-replay"},
	{name: "sampling.cpu_share_pct", unit: "%", better: "lower", moves: "minsts_per_s", where: "sampled-paperscale"},
	{name: "experiments.cpu_share_pct", unit: "%", better: "lower", moves: "minsts_per_s", where: "suite-detailed"},
	{name: "runtime.cpu_share_pct", unit: "%", better: "lower", moves: "minsts_per_s", where: allWorkloads},

	// Host audit: these move when the host, not the program, moved a number.
	{name: "host.raw_minsts_per_s", unit: "Minst/s", better: "higher", moves: "none (audit of minsts_per_s)", where: allWorkloads},
	{name: "host.ref_kernel_ms", unit: "ms", better: "lower", moves: "none (host speed)", where: allWorkloads},
	{name: "host.steal_pct", unit: "%", better: "lower", moves: "none (host contention)", where: allWorkloads},
	{name: "host.tracing_overhead_pct", unit: "%", better: "lower", moves: "none (traced vs untraced)", where: allWorkloads},
	{name: "host.profile_gap_pp", unit: "pp", better: "lower", moves: "none (span self time vs CPU profile)", where: allWorkloads},
}

// profiledLayers are the packages whose flat CPU-profile share the traced
// run reports as <layer>.cpu_share_pct.
var profiledLayers = []string{"sim", "engine", "fetch", "core", "bpred", "cache", "exec", "trace", "sampling", "experiments", "runtime"}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
