// Package obs is the observability layer: a lock-cheap metrics registry
// (atomic counters, gauges, and fixed-bucket latency histograms with
// quantile extraction) plus per-request trace spans with per-layer cost
// attribution. Every storage layer records into a registry owned by its
// database, the wire server records a span per request, and the whole
// registry is read as rows of the inv_metrics catalog (Samples) or
// scraped as Prometheus text.
//
// The design goal is the paper's Table 3 decomposition, live: a single
// traced request shows where its time went (lock waits, buffer misses,
// writebacks, simulated device charges), and the registry shows the
// same costs as distributions (p50/p95/p99), not averages — the lesson
// of the HopsFS evaluation.
//
// Cost discipline: counters and histograms are single atomic adds, so
// the registry stays on even in benchmarks; spans cost nothing unless a
// request activates one (a single atomic load guards every charge
// site), so the simulated-clock benchmark digits are unaffected.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter
// is valid and ignores all operations, so layers may record
// unconditionally whether or not a registry was attached.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load reports the current value (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value-wins gauge. A nil *Gauge ignores all
// operations.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Load reports the current value (0 for a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of counters, gauges, and histograms.
// Lookup-or-create takes a mutex; layers do it once at wiring time and
// cache the returned pointers, so the hot path is pure atomics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// NamedValue is one counter or gauge in a snapshot.
type NamedValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time copy of a registry, with every section
// sorted by name so output order is stable across runs and machines.
type Snapshot struct {
	Counters []NamedValue        `json:"counters"`
	Gauges   []NamedValue        `json:"gauges"`
	Hists    []HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry. Values are read with atomic loads, so a
// snapshot taken under load is internally slightly skewed but never
// torn. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, NamedValue{name, c.Load()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, NamedValue{name, g.Load()})
	}
	for name, h := range r.hists {
		s.Hists = append(s.Hists, h.Snapshot(name))
	}
	r.mu.Unlock()
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}
