// Package monitor is the opt-in live observability surface of a sweep: a
// Progress tracker fed by the Runner's RunEvents, and a Server that
// serves /progress and /debug/pprof/ for tcbench -http. Nothing here runs
// unless a binary asks for it; all monitoring output is out-of-band (HTTP
// and stderr), never stdout, so enabling it cannot change a sweep's
// committed results.
package monitor

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"tracecache/internal/experiments"
	"tracecache/internal/stats"
)

// Point statuses reported by Snapshot.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
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
	// InstsCommitted sums the measured instructions (Run.Retired) of the
	// points this sweep simulated: not memoized, not store-served, not
	// failed. It is the "measured insts" figure journal.Report prints for
	// the same sweep. InstsPerSec is InstsCommitted over ElapsedSeconds,
	// so it advances once per finished point.
	InstsCommitted uint64       `json:"instsCommitted"`
	InstsPerSec    float64      `json:"instsPerSec"`
	Points         []PointState `json:"points"`
}

// Progress aggregates a sweep's RunEvents into live status. It is safe
// for concurrent use; feed it through Listener.
type Progress struct {
	mu       sync.Mutex
	workers  int
	start    time.Time
	points   map[string]*PointState
	order    []string
	memoHits int
	done     int
	failed   int
	wallSum  float64 // milliseconds over completed points
	insts    uint64  // see Snapshot.InstsCommitted
	complete bool
}

// NewProgress builds a tracker. workers sizes the ETA divisor; a
// non-positive count means GOMAXPROCS, the runner's own default, so a
// tracker built from an unset worker count reports the pool that runs.
func NewProgress(workers int) *Progress {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Progress{
		workers: workers,
		start:   time.Now(),
		points:  make(map[string]*PointState),
	}
}

// Listener adapts the tracker into an experiments.Runner.OnRun listener.
func (p *Progress) Listener() func(experiments.RunEvent) {
	return func(ev experiments.RunEvent) {
		p.mu.Lock()
		defer p.mu.Unlock()
		if ev.Memoized {
			p.memoHits++
			return
		}
		ps := p.point(ev.Key)
		switch ev.Phase {
		case experiments.RunStarted:
			ps.Status = StatusRunning
		case experiments.RunDone:
			ps.WallMillis = float64(ev.Wall) / float64(time.Millisecond)
			p.wallSum += ps.WallMillis
			if ev.Err != nil {
				ps.Status = StatusFailed
				ps.Error = ev.Err.Error()
				p.failed++
				return
			}
			ps.Status = StatusDone
			p.done++
			if ev.Run != nil && ev.Provenance != stats.ProvStore {
				p.insts += ev.Run.Retired
			}
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

// Finish marks the sweep complete; SSE streams end after the next send.
func (p *Progress) Finish() {
	p.mu.Lock()
	p.complete = true
	p.mu.Unlock()
}

// Snapshot returns a consistent copy of the current progress.
func (p *Progress) Snapshot() Snapshot {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Snapshot{
		Total:          len(p.points),
		Done:           p.done,
		Failed:         p.failed,
		MemoHits:       p.memoHits,
		Complete:       p.complete,
		Workers:        p.workers,
		ElapsedSeconds: now.Sub(p.start).Seconds(),
		ETASeconds:     -1,
		InstsCommitted: p.insts,
		Points:         make([]PointState, 0, len(p.order)),
	}
	if s.ElapsedSeconds > 0 {
		s.InstsPerSec = float64(p.insts) / s.ElapsedSeconds
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
