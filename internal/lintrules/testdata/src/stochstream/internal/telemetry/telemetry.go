// Package telemetry is a stub of stochstream/internal/telemetry for the
// locksafe corpus: handle types with the real names, plus their
// constructors.
package telemetry

import (
	"sync"
	"sync/atomic"
)

// Counter mirrors the real atomic counter handle.
type Counter struct{ v atomic.Int64 }

// Inc increments the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Gauge mirrors the real atomic gauge handle.
type Gauge struct{ bits atomic.Uint64 }

// Histogram mirrors the real histogram handle.
type Histogram struct {
	mu     sync.Mutex
	counts []int64
}

// Ring mirrors the real ring-buffer trace.
type Ring struct {
	mu   sync.Mutex
	size int
}

// NewRing mirrors the real constructor.
func NewRing(capacity int) *Ring { return &Ring{size: capacity} }

// Registry mirrors the real registry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
}

// NewRegistry mirrors the real constructor.
func NewRegistry() *Registry { return &Registry{counters: map[string]*Counter{}} }

// Counter mirrors the real get-or-create accessor.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}
