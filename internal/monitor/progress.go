// Package monitor is the opt-in live observability surface of a sweep: a
// Progress tracker fed by runner events, and a Server that serves
// /metrics, /progress and /debug/pprof/ for tcbench -http and tcsim
// -http. Nothing here runs unless a binary asks for it; all monitoring
// output is out-of-band (HTTP and stderr), never stdout, so enabling it
// cannot change a sweep's committed results.
package monitor

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"tracecache/internal/experiments"
)

// Point statuses reported by Snapshot.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusMemoized = "memoized"
)

// PointState is one sweep point's live status.
type PointState struct {
	Key        string  `json:"key"`
	Status     string  `json:"status"`
	WallMillis float64 `json:"wallMillis,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// Snapshot is one consistent view of sweep progress, serialized on
// /progress.
type Snapshot struct {
	// Total counts distinct simulation points seen so far; Done, Failed,
	// Running and Queued partition them. Totals grow as a sweep's
	// experiments queue work — they are discovered, not preannounced.
	Total   int `json:"total"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	Running int `json:"running"`
	Queued  int `json:"queued"`
	// MemoHits counts requests resolved by memo sharing (not points).
	MemoHits int `json:"memoHits"`
	// Complete is set by Finish: the sweep has ended and no more points
	// will arrive; SSE streams close after reporting it.
	Complete bool `json:"complete"`
	// Workers is the worker-pool size the ETA divides by.
	Workers        int     `json:"workers"`
	ElapsedSeconds float64 `json:"elapsedSeconds"`
	// ETASeconds estimates remaining wall time as mean completed-run wall
	// times the remaining point count over the worker pool; -1 until a
	// first completion calibrates it.
	ETASeconds float64 `json:"etaSeconds"`
	// InstsCommitted is the fleet committed-instruction counter;
	// InstsPerSec is its rate over the recent sampling window (0 until
	// two samples exist).
	InstsCommitted uint64       `json:"instsCommitted"`
	InstsPerSec    float64      `json:"instsPerSec"`
	Points         []PointState `json:"points"`
}

// Progress aggregates run-lifecycle events into live sweep status. It is
// safe for concurrent use; feed it with Listener or the Point methods.
type Progress struct {
	mu       sync.Mutex
	workers  int
	insts    func() uint64
	start    time.Time
	points   map[string]*PointState
	order    []string
	memoHits int
	done     int
	failed   int
	wallSum  float64 // milliseconds over completed points
	complete bool

	lastSample time.Time
	lastInsts  uint64
	rate       float64
}

// NewProgress builds a tracker. workers sizes the ETA divisor; a
// non-positive count means GOMAXPROCS, the runner's own default, so a
// tracker built from an unset worker count reports the pool that runs.
// insts, when non-nil, reads the fleet committed-instruction counter
// (e.g. sim.Metrics.Insts.Value) for the live throughput estimate.
func NewProgress(workers int, insts func() uint64) *Progress {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	now := time.Now()
	return &Progress{
		workers:    workers,
		insts:      insts,
		start:      now,
		points:     make(map[string]*PointState),
		lastSample: now,
	}
}

// Listener adapts the tracker into an experiments.Runner.OnRun listener.
func (p *Progress) Listener() func(experiments.RunEvent) {
	return func(ev experiments.RunEvent) {
		switch {
		case ev.Phase == experiments.RunQueued:
			p.PointQueued(ev.Key)
		case ev.Phase == experiments.RunStarted:
			p.PointStarted(ev.Key)
		case ev.Memoized:
			p.memoHit()
		default:
			p.PointDone(ev.Key, ev.Err, ev.Wall)
		}
	}
}

// point returns the state for key, creating it in arrival order.
func (p *Progress) point(key string) *PointState {
	ps, ok := p.points[key]
	if !ok {
		ps = &PointState{Key: key, Status: StatusQueued}
		p.points[key] = ps
		p.order = append(p.order, key)
	}
	return ps
}

// PointQueued records a point waiting for a worker slot.
func (p *Progress) PointQueued(key string) {
	p.mu.Lock()
	p.point(key)
	p.mu.Unlock()
}

// PointStarted records a point acquiring its worker slot.
func (p *Progress) PointStarted(key string) {
	p.mu.Lock()
	p.point(key).Status = StatusRunning
	p.mu.Unlock()
}

// PointDone records a point's resolution.
func (p *Progress) PointDone(key string, err error, wall time.Duration) {
	p.mu.Lock()
	ps := p.point(key)
	ps.WallMillis = float64(wall) / float64(time.Millisecond)
	if err != nil {
		ps.Status = StatusFailed
		ps.Error = err.Error()
		p.failed++
	} else {
		ps.Status = StatusDone
		p.done++
	}
	p.wallSum += ps.WallMillis
	p.mu.Unlock()
}

func (p *Progress) memoHit() {
	p.mu.Lock()
	p.memoHits++
	p.mu.Unlock()
}

// Finish marks the sweep complete; SSE streams end after the next send.
func (p *Progress) Finish() {
	p.mu.Lock()
	p.complete = true
	p.mu.Unlock()
}

// sampleRate refreshes the insts/s estimate over windows of at least
// 200ms, so rapid polling cannot alias the rate to zero. Callers hold mu.
func (p *Progress) sampleRate(now time.Time) {
	if p.insts == nil {
		return
	}
	cur := p.insts()
	dt := now.Sub(p.lastSample).Seconds()
	if dt >= 0.2 {
		p.rate = float64(cur-p.lastInsts) / dt
		p.lastInsts = cur
		p.lastSample = now
	}
}

// Snapshot returns a consistent copy of the current progress.
func (p *Progress) Snapshot() Snapshot {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sampleRate(now)
	s := Snapshot{
		Total:          len(p.points),
		Done:           p.done,
		Failed:         p.failed,
		MemoHits:       p.memoHits,
		Complete:       p.complete,
		Workers:        p.workers,
		ElapsedSeconds: now.Sub(p.start).Seconds(),
		ETASeconds:     -1,
		InstsPerSec:    p.rate,
		Points:         make([]PointState, 0, len(p.order)),
	}
	if p.insts != nil {
		s.InstsCommitted = p.insts()
	}
	for _, key := range p.order {
		ps := *p.points[key]
		s.Points = append(s.Points, ps)
		switch ps.Status {
		case StatusRunning:
			s.Running++
		case StatusQueued:
			s.Queued++
		}
	}
	sort.SliceStable(s.Points, func(i, j int) bool {
		return statusRank(s.Points[i].Status) < statusRank(s.Points[j].Status)
	})
	if finished := p.done + p.failed; finished > 0 {
		meanWall := p.wallSum / float64(finished)
		remaining := s.Running + s.Queued
		s.ETASeconds = meanWall / 1000 * float64(remaining) / float64(p.workers)
	}
	return s
}

// statusRank orders snapshot points: active first, then queued, then
// settled — the order a live dashboard wants.
func statusRank(status string) int {
	switch status {
	case StatusRunning:
		return 0
	case StatusQueued:
		return 1
	case StatusFailed:
		return 2
	default:
		return 3
	}
}
