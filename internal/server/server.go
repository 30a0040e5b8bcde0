// Package server is the tcserve sweep service: a long-running HTTP/JSON
// daemon that accepts simulation sweeps (detailed, replay-backed, or
// sampled), executes them on a shared worker pool, and serves three
// things per job: its status, its results, and its live progress (JSON
// and SSE). /metrics and pprof come from the handler set every HTTP
// surface shares (monitor.Handle). Every point goes through
// experiments.Runner backed by the persistent content-addressed result
// store (internal/resultstore), so a point any process has ever simulated
// is served from disk — across daemon restarts, CLI runs sharing the
// store directory, and any number of clients. Identical in-flight
// submissions coalesce into one job.
//
// The daemon changes where results come from, never what they are: a
// job's /results payload is byte-identical whether its points were
// simulated, replayed, or store-served (provenance travels separately,
// in job status, metrics, and the journal).
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"tracecache/internal/experiments"
	"tracecache/internal/journal"
	"tracecache/internal/metrics"
	"tracecache/internal/monitor"
	"tracecache/internal/resultstore"
)

// Options configures a Server. Zero values select the documented
// defaults; StoreDir is required.
type Options struct {
	// StoreDir roots the persistent result store (required).
	StoreDir string
	// TraceDir, when non-empty, persists and reuses retired-stream
	// recordings for replay-mode jobs across jobs and processes.
	TraceDir string
	// JournalPath, when non-empty, appends one JSONL record per resolved
	// run request (shared safely with concurrent CLI appenders).
	JournalPath string
	// Workers bounds concurrently executing simulations per job
	// (default GOMAXPROCS, via experiments.Runner).
	Workers int
	// MaxConcurrentJobs bounds jobs simulating at once; later jobs queue
	// (default 2).
	MaxConcurrentJobs int
	// MaxPointsPerJob rejects sweeps larger than this many points
	// (default 1024).
	MaxPointsPerJob int
	// Logf, when non-nil, receives server log lines.
	Logf func(format string, args ...any)
}

// serverMetrics is the daemon's own counter set.
type serverMetrics struct {
	JobsSubmitted *metrics.Counter
	JobsCoalesced *metrics.Counter
	JobsCompleted *metrics.Counter
	JobsFailed    *metrics.Counter
}

// Server is the sweep service. Build with New, serve with Start (or
// mount Handler), stop with Close.
type Server struct {
	opts  Options
	reg   *metrics.Registry
	store *resultstore.Store
	// runnerMetrics is shared by every job's runner: the daemon's fleet
	// counters are global, not per-job.
	runnerMetrics *experiments.RunnerMetrics
	met           *serverMetrics
	jrnl          *journal.Writer

	httpSrv *http.Server
	// done is closed by Close, under mu, so a submission that sees it
	// open registers its job in running before Close waits.
	done      chan struct{}
	closeOnce sync.Once
	// running counts runJob goroutines; Close waits for them.
	running sync.WaitGroup

	mu     sync.Mutex
	seq    int
	jobs   map[string]*Job
	bySpec map[string]*Job // live (non-failed) job per spec hash, for coalescing
	order  []string        // job ids in submission order

	jobSem chan struct{}
}

// New builds a server: opens the store and journal, registers metrics.
func New(opts Options) (*Server, error) {
	if opts.MaxConcurrentJobs <= 0 {
		opts.MaxConcurrentJobs = 2
	}
	if opts.MaxPointsPerJob <= 0 {
		opts.MaxPointsPerJob = 1024
	}
	store, err := resultstore.Open(opts.StoreDir)
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	store.Metrics = resultstore.InstrumentStore(reg)
	var jrnl *journal.Writer
	if opts.JournalPath != "" {
		jrnl, err = journal.OpenFile(opts.JournalPath)
		if err != nil {
			return nil, err
		}
	}
	s := &Server{
		opts:          opts,
		reg:           reg,
		store:         store,
		runnerMetrics: experiments.InstrumentRunner(reg),
		met: &serverMetrics{
			JobsSubmitted: reg.Counter("tracecache_server_jobs_submitted_total",
				"Sweep jobs accepted (coalesced joins excluded)."),
			JobsCoalesced: reg.Counter("tracecache_server_jobs_coalesced_total",
				"Submissions coalesced into an already-live identical job."),
			JobsCompleted: reg.Counter("tracecache_server_jobs_completed_total",
				"Jobs that finished with every point resolved."),
			JobsFailed: reg.Counter("tracecache_server_jobs_failed_total",
				"Jobs that finished with at least one failed point."),
		},
		jrnl:   jrnl,
		done:   make(chan struct{}),
		jobs:   make(map[string]*Job),
		bySpec: make(map[string]*Job),
		jobSem: make(chan struct{}, opts.MaxConcurrentJobs),
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Handler builds the service mux: the shared /metrics and pprof set plus
// the job routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	monitor.Handle(mux, s.reg)
	mux.HandleFunc("POST /api/jobs", s.submitJob)
	mux.HandleFunc("GET /api/jobs", s.listJobs)
	mux.HandleFunc("GET /api/jobs/{id}", s.jobStatus)
	mux.HandleFunc("GET /api/jobs/{id}/results", s.jobResults)
	mux.HandleFunc("GET /api/jobs/{id}/progress", s.jobProgress)
	return mux
}

// Start serves the mux on addr in the background and returns the bound
// address. Close stops it.
func (s *Server) Start(addr string) (string, error) {
	srv, bound, err := monitor.Serve(addr, s.Handler())
	if err != nil {
		return "", fmt.Errorf("server: %w", err)
	}
	s.httpSrv = srv
	return bound, nil
}

// Close stops the server: the shutdown signal ends in-flight SSE streams
// promptly, later submissions are refused with 503, and open connections
// close. Running jobs finish and jobs still waiting for a slot fail
// without simulating; Close returns once every job is terminal, so no
// store put or journal append outlives it, and then closes the journal.
// Idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.mu.Lock()
		close(s.done)
		s.mu.Unlock()
		if s.httpSrv != nil {
			err = s.httpSrv.Close()
		}
		s.running.Wait()
		if jerr := s.jrnl.Close(); err == nil {
			err = jerr
		}
	})
	return err
}

// closed reports whether Close has begun.
func (s *Server) closed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// writeJSON renders one JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders a JSON error response.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
