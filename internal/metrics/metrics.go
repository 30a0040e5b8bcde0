// Package metrics is the simulator's fleet-level instrumentation layer: a
// low-overhead, process-wide registry of atomic counters, gauges and
// fixed-bucket histograms, exposed in the Prometheus text format by the
// monitoring HTTP surface (internal/monitor).
//
// The layer follows the same opt-in contract as internal/obs: producers
// hold pointers that are nil by default, so the disabled path costs one
// pointer comparison per instrumentation site. Once created, a Counter,
// Gauge or Histogram is updated with single atomic operations and is safe
// for unsynchronized concurrent use from any number of simulations.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer value that can go up and down
// (worker-pool occupancy, queue depth).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Buckets follow the Prometheus
// convention: bucket i counts observations v <= bounds[i], plus an
// implicit +Inf bucket, and the exposition is cumulative.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, +Inf excluded
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits
}

// newHistogram builds a histogram over the bounds, which must be sorted
// ascending; an empty slice yields a single +Inf bucket.
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			//tcvet:ignore nopanic programmer invariant: bounds are compiled-in literals, metrichygiene checks ascending order statically
			panic(fmt.Sprintf("metrics: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v; len(bounds) selects +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Cumulative returns the upper bounds (excluding +Inf) and the cumulative
// bucket counts (including the final +Inf bucket, equal to Count up to
// concurrent-update skew).
func (h *Histogram) Cumulative() ([]float64, []uint64) {
	counts := make([]uint64, len(h.buckets))
	var acc uint64
	for i := range h.buckets {
		acc += h.buckets[i].Load()
		counts[i] = acc
	}
	return h.bounds, counts
}

// DefSecondsBuckets are the default bounds for wall-time histograms, in
// seconds (sub-millisecond memo hits up to minute-long simulations).
var DefSecondsBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// metricKind discriminates family types.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

var kindNames = [...]string{"counter", "gauge", "histogram"}

// series is one labelled instance within a family.
type series struct {
	labels string // canonical rendered label pairs, "" when unlabelled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name, help string
	kind       metricKind
	bounds     []float64
	series     []*series
	byLabel    map[string]*series
}

// Registry is a set of metric families. The zero value is not usable; use
// NewRegistry. Registration (Counter/Gauge/Histogram) takes a lock and is
// idempotent — the same name and label set returns the same instance —
// while updates on the returned metrics are lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry used by tools that do not need
// registry isolation.
var Default = NewRegistry()

// Counter returns the counter with the name and label pairs (key, value,
// key, value, ...), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.lookup(name, help, kindCounter, nil, labels).c
}

// Gauge returns the gauge with the name and label pairs, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.lookup(name, help, kindGauge, nil, labels).g
}

// Histogram returns the histogram with the name, bucket upper bounds
// (ascending, +Inf implicit) and label pairs, creating it on first use.
// Later calls for an existing family ignore the bounds argument.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	return r.lookup(name, help, kindHistogram, bounds, labels).h
}

// lookup finds or creates the family and series. Mismatched reuse of a
// name (wrong kind, odd label pairs) is a programming error and panics.
func (r *Registry) lookup(name, help string, kind metricKind, bounds []float64, labels []string) *series {
	if len(labels)%2 != 0 {
		//tcvet:ignore nopanic programmer invariant: label pairs are compiled-in literals, metrichygiene checks them statically
		panic(fmt.Sprintf("metrics: %s: odd label pairs %q", name, labels))
	}
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind, bounds: bounds,
			byLabel: make(map[string]*series)}
		r.families[name] = fam
	} else if fam.kind != kind {
		//tcvet:ignore nopanic programmer invariant: a metric name cannot change kind between compiled-in registration sites
		panic(fmt.Sprintf("metrics: %s already registered as a %s", name, kindNames[fam.kind]))
	}
	if s, ok := fam.byLabel[sig]; ok {
		return s
	}
	s := &series{labels: sig}
	switch kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(fam.bounds)
	}
	fam.byLabel[sig] = s
	fam.series = append(fam.series, s)
	sort.Slice(fam.series, func(i, j int) bool { return fam.series[i].labels < fam.series[j].labels })
	return s
}

// labelSignature renders label pairs canonically: sorted by key, each as
// key="escaped-value", comma-joined.
func labelSignature(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(p.v))
		sb.WriteByte('"')
	}
	return sb.String()
}

// escapeLabelValue applies the Prometheus label-value escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
