// Package flightrec is a stub of stochstream/internal/flightrec for the
// lintrules corpora: the Recorder handle and the value-type span handles
// (stepretain).
package flightrec

import "sync"

// Span mirrors the real completed-span record: a plain value, safe to copy.
type Span struct {
	ID, Parent int64
	Step       int
	BeginNs    int64
	EndNs      int64
}

// Active mirrors the real in-flight span handle: a plain value, safe to copy.
type Active struct {
	ID      int64
	Step    int
	BeginNs int64
}

// Recorder mirrors the real recorder: a mutex-guarded span ring behind a
// pinned clock seam.
type Recorder struct {
	mu    sync.Mutex
	clock func() int64
	tick  int64
	spans []Span
}

// New returns a recorder on a logical clock.
func New() *Recorder {
	r := &Recorder{}
	r.clock = func() int64 { r.tick++; return r.tick }
	return r
}

// Begin opens a span stamped through the seam.
func (r *Recorder) Begin(step int) Active {
	return Active{ID: int64(step), Step: step, BeginNs: r.clock()}
}

// End closes a span into the ring.
func (r *Recorder) End(a Active) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: a.ID, Step: a.Step, BeginNs: a.BeginNs, EndNs: r.clock()})
}

// Spans returns a copy of the recorded spans (values, safe to retain).
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}
