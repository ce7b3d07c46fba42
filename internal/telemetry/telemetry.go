// Package telemetry is the observability layer of the stream-join engine: a
// dependency-free metrics registry (atomic counters, gauges and fixed-bucket
// latency histograms with snapshot-on-read quantiles), a ring-buffer decision
// trace that records why each eviction happened (per-candidate policy scores,
// the chosen victims), and export formats — Prometheus text exposition and
// JSON — that a server (the daemon's HTTP surface) or a CLI writes out.
//
// The paper's argument is statistical: HEEB's benefit estimates and
// FlowExpect's expected-flow decisions are only as good as what the operator
// observes at run time. This package is the measurement substrate — it lets a
// deployment confirm that the policy's scores, the eviction decisions and the
// hot-path latencies match what the theory predicts, and it is the baseline
// every performance change must prove itself against.
//
// Wiring: an operator reports into the registry it is given
// (engine.Config.Telemetry). EnableGlobal installs the default registry as the
// process-wide one (Global), which the simulator's driver, engine.Run, gives
// to every operator it builds — that is how the figure harnesses, which build
// their runs internally, are measured.
//
// Hot-path cost: an operator without a registry pays a nil check; one with a
// registry pays a handful of atomic adds per step (no allocations, no locks
// on the counter/histogram write paths).
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry EnableGlobal installs (cmd/repro
// -metrics, the examples).
func Default() *Registry { return defaultRegistry }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

// Registry holds named metrics and the decision trace. All methods are safe
// for concurrent use; metric handles are resolved once (get-or-create under a
// lock) and then written lock-free.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	gaugeFuncs map[string]func() float64
	trace      *Ring

	// clock, when set, replaces the wall clock for the registry's internal
	// latency timings (InstrumentedPolicy). The engine installs the flight
	// recorder's clock here so a run under a logical clock is byte-
	// deterministic end to end.
	clock atomic.Pointer[func() int64]
}

// NewRegistry returns an empty registry with a decision trace of the default
// capacity (512 records). The trace allocates its records only once
// something is recorded.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		hists:      map[string]*Histogram{},
		gaugeFuncs: map[string]func() float64{},
		trace:      NewRing(512),
	}
}

// Counter returns the named counter, creating it on first use. Names may
// carry a Prometheus label set in braces, e.g. `evictions_total{policy="HEEB"}`.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers (or replaces) a gauge whose value is computed at
// snapshot time — used to surface externally maintained counters such as the
// min-cost-flow solver statistics.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram with the default latency buckets
// (nanoseconds, log-spaced), creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, nil)
}

// HistogramWith returns the named histogram, creating it with the given
// bucket bounds on first use (nil means the default latency buckets). Bounds
// of an existing histogram are not changed.
func (r *Registry) HistogramWith(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// SetClock installs (or, with nil, removes) a nanosecond clock for the
// registry's internal latency timings. Without one the wall clock is used.
func (r *Registry) SetClock(fn func() int64) {
	if fn == nil {
		r.clock.Store(nil)
		return
	}
	r.clock.Store(&fn)
}

// nowNs reads the registry's clock: the installed one, or the wall clock.
func (r *Registry) nowNs() int64 {
	if fn := r.clock.Load(); fn != nil {
		return (*fn)()
	}
	return wallNowNs()
}

// Trace returns the registry's decision trace.
func (r *Registry) Trace() *Ring { return r.trace }

// sortedKeys returns the keys of a map in stable order for deterministic
// export output.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
