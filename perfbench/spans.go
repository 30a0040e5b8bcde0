package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around that call. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Point  int    `json:"point"`  // per-point id, shared by a point's spans; 0 outside points
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site. Spans nest
// strictly: the benchmark drives every layer from one logical thread
// (Runner.Workers = 1), so a stack of open spans gives each its parent.
// While a CPU profile is being written, every open span also labels the
// goroutine, so profile samples can be attributed to the innermost span.
type tracer struct {
	mu        sync.Mutex
	t0        time.Time
	spans     []span
	stack     []int
	ctxs      []context.Context
	nextPoint int
	open      map[string]int64 // start times of points timed through pointStart
	labels    bool
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ctxs: []context.Context{context.Background()}}
}

// begin opens a span under the innermost open one; point marks a
// per-point span, which gets a fresh point id.
func (t *tracer) begin(name string, point bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, pid := -1, 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		pid = t.spans[parent].Point
	}
	if point {
		t.nextPoint++
		pid = t.nextPoint
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Point: pid})
	t.stack = append(t.stack, len(t.spans)-1)
	ctx := pprof.WithLabels(t.ctxs[len(t.ctxs)-1], pprof.Labels("span", name))
	t.ctxs = append(t.ctxs, ctx)
	if t.labels {
		pprof.SetGoroutineLabels(ctx)
	}
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.stack)
	if n == 0 {
		return
	}
	t.spans[t.stack[n-1]].End = int64(time.Since(t.t0))
	t.stack = t.stack[:n-1]
	t.ctxs = t.ctxs[:len(t.ctxs)-1]
	if t.labels {
		pprof.SetGoroutineLabels(t.ctxs[len(t.ctxs)-1])
	}
}

// pointStart and pointEnd time a point the benchmark does not call
// itself: the Runner announces it through its OnRun hook. The point's
// span is added when it ends, under the innermost open span, so points
// whose events interleave (a worker slot is released before the result
// is published) still get their own intervals. Both run on the
// goroutine executing the point, which is the one the label must mark.
func (t *tracer) pointStart(key, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.open == nil {
		t.open = make(map[string]int64)
	}
	t.open[key] = int64(time.Since(t.t0))
	if t.labels {
		pprof.SetGoroutineLabels(pprof.WithLabels(t.ctxs[len(t.ctxs)-1], pprof.Labels("span", name)))
	}
}

func (t *tracer) pointEnd(key, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start, ok := t.open[key]
	if !ok {
		return
	}
	delete(t.open, key)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.nextPoint++
	t.spans = append(t.spans, span{Name: name, Start: start, End: int64(time.Since(t.t0)), Parent: parent, Point: t.nextPoint})
	if t.labels {
		pprof.SetGoroutineLabels(t.ctxs[len(t.ctxs)-1])
	}
}

// do runs fn inside a span.
func (t *tracer) do(name string, point bool, fn func()) {
	t.begin(name, point)
	defer t.end()
	fn()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.snapshot(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover. Only spans whose
// interval lies inside [from, to] count.
func selfTimes(spans []span, from, to int64) map[string]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		if s.Start < from || s.End > to {
			continue
		}
		out[s.Name] += (s.End - s.Start) - covered(children[i], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}
