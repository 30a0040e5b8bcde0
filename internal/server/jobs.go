package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"

	"tracecache/internal/config"
	"tracecache/internal/experiments"
	"tracecache/internal/journal"
	"tracecache/internal/monitor"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
	"tracecache/internal/workload"
)

// SweepSpec is the client-submitted description of one sweep: which
// configurations and benchmarks, under which budgets and execution mode.
// Two submissions with the same normalized spec are the same work — they
// coalesce into one job and address the same store entries.
type SweepSpec struct {
	// Configs names the machine configurations (tcsim -list prints them).
	Configs []string `json:"configs"`
	// Benchmarks names the workloads; empty selects the full suite.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// WarmupInsts retire before measurement (default 400000; unused by
	// sampled sweeps, whose windows carry their own warmup).
	WarmupInsts uint64 `json:"warmupInsts,omitempty"`
	// MeasureInsts is the measured budget per point (default 1000000); a
	// sampled sweep's total committed-stream extent.
	MeasureInsts uint64 `json:"measureInsts,omitempty"`
	// FastForwardInsts, when non-zero, is the functional prefix each
	// point's simulator executes and warms on before its detailed phases
	// (as tcsim -ffwd).
	FastForwardInsts uint64 `json:"fastForwardInsts,omitempty"`
	// Sample, when non-empty, runs the sweep through statistical sampling
	// with this schedule ("window:period:warmup[:seed]", as tcsim/tcbench
	// -sample).
	Sample string `json:"sample,omitempty"`
	// Replay enables the front-end replay fast path for the sweep; it
	// cannot be combined with Sample or FastForwardInsts.
	Replay bool `json:"replay,omitempty"`
}

// point is one (configuration, benchmark) cell of a sweep.
type point struct {
	cfg   sim.Config
	bench string
}

// normalize validates the spec, applies defaults, and resolves its point
// list in spec order.
func (s *Server) normalize(spec *SweepSpec) ([]point, sim.SamplingParams, error) {
	if len(spec.Configs) == 0 {
		return nil, sim.SamplingParams{}, errors.New("spec names no configs")
	}
	if spec.WarmupInsts == 0 {
		spec.WarmupInsts = 400_000
	}
	if spec.MeasureInsts == 0 {
		spec.MeasureInsts = 1_000_000
	}
	if len(spec.Benchmarks) == 0 {
		spec.Benchmarks = workload.Names()
	}
	var params sim.SamplingParams
	if spec.Sample != "" {
		var err error
		params, err = sim.ParseSamplingSpec(spec.Sample)
		if err != nil {
			return nil, params, err
		}
		if spec.Replay {
			return nil, params, errors.New("sample and replay are mutually exclusive")
		}
		spec.WarmupInsts = 0 // windows carry their own warmup
	}
	if spec.Replay && spec.FastForwardInsts > 0 {
		return nil, params, errors.New("replay and fastForwardInsts are mutually exclusive (replay would warm the prefix through the replay loop)")
	}
	known := make(map[string]bool, len(workload.Names()))
	for _, b := range workload.Names() {
		known[b] = true
	}
	for _, b := range spec.Benchmarks {
		if !known[b] {
			return nil, params, fmt.Errorf("unknown benchmark %q", b)
		}
	}
	pts := make([]point, 0, len(spec.Configs)*len(spec.Benchmarks))
	for _, name := range spec.Configs {
		cfg, ok := config.ByName(name)
		if !ok {
			return nil, params, fmt.Errorf("unknown config %q", name)
		}
		for _, b := range spec.Benchmarks {
			pts = append(pts, point{cfg: cfg, bench: b})
		}
	}
	if len(pts) > s.opts.MaxPointsPerJob {
		return nil, params, fmt.Errorf("sweep has %d points, limit %d", len(pts), s.opts.MaxPointsPerJob)
	}
	return pts, params, nil
}

// hash fingerprints a normalized spec for coalescing and job naming.
func (spec *SweepSpec) hash() string {
	// Struct-order JSON marshal is canonical for a normalized spec.
	data, err := json.Marshal(spec)
	if err != nil {
		data = []byte(fmt.Sprintf("%+v", spec))
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Job states.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// PointResult is one resolved sweep cell in a job's /results payload.
// Provenance and timing metadata are deliberately absent: the payload is
// a pure function of the spec, byte-identical whether the point was
// simulated, replayed, or store-served.
type PointResult struct {
	Config    string         `json:"config"`
	Benchmark string         `json:"benchmark"`
	Summary   *stats.Summary `json:"summary,omitempty"`
	Sampled   *stats.Sampled `json:"sampled,omitempty"`
	Error     string         `json:"error,omitempty"`
}

// Job is one submitted sweep and its lifecycle.
type Job struct {
	ID       string
	SpecHash string
	Spec     SweepSpec

	progress *monitor.Progress
	finished chan struct{}

	mu        sync.Mutex
	state     string
	coalesced int
	prov      map[string]int
	results   []PointResult
	failed    int
}

// jobStatus is the JSON shape of one job on /api/jobs.
type jobStatusJSON struct {
	ID        string           `json:"id"`
	State     string           `json:"state"`
	Spec      SweepSpec        `json:"spec"`
	Points    int              `json:"points"`
	Failed    int              `json:"failed,omitempty"`
	Coalesced int              `json:"coalesced,omitempty"`
	Prov      map[string]int   `json:"provenance,omitempty"`
	Progress  monitor.Snapshot `json:"progress"`
}

func (j *Job) status(points int) jobStatusJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	prov := make(map[string]int, len(j.prov))
	for k, v := range j.prov {
		prov[k] = v
	}
	return jobStatusJSON{
		ID:        j.ID,
		State:     j.state,
		Spec:      j.Spec,
		Points:    points,
		Failed:    j.failed,
		Coalesced: j.coalesced,
		Prov:      prov,
		Progress:  j.progress.Snapshot(),
	}
}

// provListener tallies per-job provenance counts from run events.
func (j *Job) provListener() func(experiments.RunEvent) {
	return func(ev experiments.RunEvent) {
		if ev.Phase != experiments.RunDone || ev.Err != nil {
			return
		}
		j.mu.Lock()
		j.prov[ev.Provenance]++
		j.mu.Unlock()
	}
}

// submitJob accepts a sweep spec. In one locked section it joins a live
// identical job, else refuses with 503 once Close has begun, else
// creates the job.
func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	pts, params, err := s.normalize(&spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	hash := spec.hash()

	s.mu.Lock()
	if j, ok := s.bySpec[hash]; ok {
		j.mu.Lock()
		j.coalesced++
		j.mu.Unlock()
		s.mu.Unlock()
		s.met.JobsCoalesced.Inc()
		writeJSON(w, http.StatusOK, j.status(len(pts)))
		return
	}
	if s.closed() {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server closed")
		return
	}
	s.seq++
	j := &Job{
		ID:       fmt.Sprintf("j%04d-%s", s.seq, hash[:8]),
		SpecHash: hash,
		Spec:     spec,
		progress: monitor.NewProgress(s.opts.Workers, s.runnerMetrics.Sim.Insts.Value),
		finished: make(chan struct{}),
		state:    JobQueued,
		prov:     make(map[string]int),
	}
	s.jobs[j.ID] = j
	s.bySpec[hash] = j
	s.order = append(s.order, j.ID)
	s.running.Add(1)
	s.mu.Unlock()
	s.met.JobsSubmitted.Inc()
	s.logf("job %s: %d points (%s)", j.ID, len(pts), summarizeSpec(&spec))

	go s.runJob(j, pts, params)
	writeJSON(w, http.StatusCreated, j.status(len(pts)))
}

// runJob executes a job under the job-concurrency gate on a fresh runner
// sharing the server's store, trace directory, journal, and metrics. A
// fresh runner per job means results come from the persistent store, not
// a process-lifetime memo, so restarted daemons and long-lived ones
// behave identically. A job still waiting for its slot when Close runs
// fails every point with "server closed" and simulates nothing.
func (s *Server) runJob(j *Job, pts []point, params sim.SamplingParams) {
	defer s.running.Done()
	defer close(j.finished)
	select {
	case s.jobSem <- struct{}{}:
		defer func() { <-s.jobSem }()
	case <-s.done:
	}
	if s.closed() {
		results := make([]PointResult, len(pts))
		for i, pt := range pts {
			results[i] = PointResult{Config: pt.cfg.Name, Benchmark: pt.bench, Error: "server closed"}
		}
		s.finishJob(j, results)
		return
	}

	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()

	r := experiments.NewRunner(j.Spec.WarmupInsts, j.Spec.MeasureInsts)
	r.Workers = s.opts.Workers
	r.FastForward = j.Spec.FastForwardInsts
	r.Store = s.store
	r.TraceDir = s.opts.TraceDir
	r.Replay = j.Spec.Replay
	r.Sampling = params
	r.Metrics = s.runnerMetrics
	r.OnRun = experiments.MultiListener(
		journal.RunnerListener(s.jrnl, func(err error) { s.logf("job %s: journal: %v", j.ID, err) }),
		j.progress.Listener(),
		j.provListener(),
	)

	results := make([]PointResult, len(pts))
	var wg sync.WaitGroup
	for i, pt := range pts {
		wg.Add(1)
		go func(i int, pt point) {
			defer wg.Done()
			res := PointResult{Config: pt.cfg.Name, Benchmark: pt.bench}
			if params.Enabled() {
				sm, err := r.RunSampledE(pt.cfg, pt.bench)
				if err != nil {
					res.Error = err.Error()
				} else {
					// Strip provenance metadata: /results is a pure
					// function of the spec.
					sc := *sm
					sc.Meta = nil
					res.Sampled = &sc
				}
			} else {
				run, err := r.RunE(pt.cfg, pt.bench)
				if err != nil {
					res.Error = err.Error()
				} else {
					sum := run.Summary()
					sum.Meta = nil
					res.Summary = &sum
				}
			}
			results[i] = res
		}(i, pt)
	}
	wg.Wait()
	s.finishJob(j, results)
}

// finishJob records a job's results and makes it terminal: failed when
// any point failed, done otherwise.
func (s *Server) finishJob(j *Job, results []PointResult) {
	j.progress.Finish()
	failed := 0
	for _, res := range results {
		if res.Error != "" {
			failed++
		}
	}
	j.mu.Lock()
	j.results = results
	j.failed = failed
	if failed > 0 {
		j.state = JobFailed
	} else {
		j.state = JobDone
	}
	j.mu.Unlock()
	if failed > 0 {
		s.met.JobsFailed.Inc()
	} else {
		s.met.JobsCompleted.Inc()
	}
	s.logf("job %s: %s (%d points, %d failed)", j.ID, j.stateNow(), len(results), failed)

	// Terminal jobs leave the coalescing index: a later identical
	// submission becomes a new job (typically store-served end to end).
	s.mu.Lock()
	if s.bySpec[j.SpecHash] == j {
		delete(s.bySpec, j.SpecHash)
	}
	s.mu.Unlock()
}

func (j *Job) stateNow() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// job resolves the {id} path value.
func (s *Server) job(r *http.Request) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (j *Job) pointCount() int {
	n := len(j.Spec.Benchmarks)
	return len(j.Spec.Configs) * n
}

func (s *Server) listJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]jobStatusJSON, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status(j.pointCount()))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) jobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status(j.pointCount()))
}

// jobResults serves the deterministic result payload of a finished job:
// points in spec order, provenance-free (see PointResult). 409 until the
// job reaches a terminal state.
func (s *Server) jobResults(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	state := j.state
	results := j.results
	j.mu.Unlock()
	if state != JobDone && state != JobFailed {
		writeError(w, http.StatusConflict, "job is %s; results are available once it finishes", state)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"points": results})
}

// jobProgress serves the job's live progress as JSON or SSE, through the
// same handler as the standalone monitor. The server's shutdown signal
// ends open streams promptly on Close.
func (s *Server) jobProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	monitor.ProgressHandler(j.progress.Snapshot, s.done)(w, r)
}

// summarizeSpec renders a short log description of a spec.
func summarizeSpec(spec *SweepSpec) string {
	mode := "detailed"
	if spec.Sample != "" {
		mode = "sampled " + spec.Sample
	} else if spec.Replay {
		mode = "replay"
	}
	return fmt.Sprintf("%d configs × %d benchmarks, warmup %d, measure %d, %s",
		len(spec.Configs), len(spec.Benchmarks), spec.WarmupInsts, spec.MeasureInsts, mode)
}
