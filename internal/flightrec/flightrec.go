// Package flightrec is the engine's flight recorder: an always-on,
// fixed-memory observability layer that keeps a causal record of what the
// operator was doing in the steps leading up to a fault. It has three parts:
//
//   - Step-phase spans. engine.Step is decomposed into recorded phases
//     (expiry-prune, probe, emit, score, evict, checkpoint) with begin/end
//     timestamps and key counts, written into a power-of-two ring buffer
//     with zero steady-state allocation.
//
//   - Per-tuple lifecycle tracking. A deterministic hash-sampled subset of
//     join keys gets full causal records — ingest, index admit, matches
//     emitted, cache admit/evict/expire — queryable by key. Sampling is
//     seeded from the operator Config, so it is replay-stable.
//
//   - Diagnostics bundles. On ErrInvariant, a recovered panic or an
//     explicit signal, the engine dumps a versioned bundle (span ring,
//     lifecycle records, telemetry snapshot and a checkpoint in the
//     internal/checkpoint envelope) to a directory; see
//     bundle.go and WriteChromeTrace for the Perfetto-loadable trace export.
//
// Determinism contract: every timestamp comes from the recorder's one clock,
// Options.Clock, or the wall clock when that is nil. The engine times its
// phases and batches with the same clock (Recorder.Clock), so deterministic
// runs (replay tests, export-determinism tests) inject LogicalClock and
// compare two runs byte for byte.
package flightrec

import (
	"sync"
	"sync/atomic"
	"time"
)

// The recorder's fixed memory budget: the span ring holds the newest
// ringSize spans, the lifecycle store at most maxTrackedKeys keys of
// eventsPerKey events each, and one recorder writes at most maxBundles
// bundles, so a flapping fault cannot fill the disk.
const (
	ringSize       = 1024
	maxTrackedKeys = 128
	eventsPerKey   = 32
	maxBundles     = 16
)

// Phase identifies what the operator was doing during a span.
type Phase uint8

// The recorded phases. PhaseStep is the per-step root span; the engine
// phases (expire … checkpoint) are its children.
const (
	PhaseStep Phase = iota
	PhaseExpire
	PhaseProbe
	PhaseEmit
	PhaseScore
	PhaseEvict
	PhaseCheckpoint
	numPhases
)

var phaseNames = [numPhases]string{
	"step", "expire", "probe", "emit", "score", "evict", "checkpoint",
}

// String returns the phase's stable wire name.
func (p Phase) String() string { return wireName(p, phaseNames[:]) }

// MarshalJSON encodes the phase as its stable wire name.
func (p Phase) MarshalJSON() ([]byte, error) { return []byte(`"` + p.String() + `"`), nil }

// UnmarshalJSON decodes a wire name back to a phase (see parseWireName).
func (p *Phase) UnmarshalJSON(b []byte) error { return parseWireName(b, phaseNames[:], p) }

// wireName is the JSON codec Phase and LifeKind share: an enum value
// travels as its name in names, and a value past the table is "unknown".
func wireName[T ~uint8](v T, names []string) string {
	if int(v) < len(names) {
		return names[v]
	}
	return "unknown"
}

// parseWireName decodes a quoted wire name to its index in names. An
// unknown name decodes to len(names), "unknown", rather than failing, so
// bundles from newer versions still load.
func parseWireName[T ~uint8](b []byte, names []string, v *T) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	for i, n := range names {
		if n == s {
			*v = T(i)
			return nil
		}
	}
	*v = T(len(names))
	return nil
}

// Span is one recorded phase: its position in the step/parent hierarchy,
// begin/end timestamps from the recorder's clock, a key/item count and a
// phase-specific detail value. Label is always empty; it stays only while
// the benchmark's trace stitching (bench/trace.go) reads it.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Step   int    `json:"step"`
	Phase  Phase  `json:"phase"`
	Label  string `json:"label,omitempty"`
	Begin  int64  `json:"begin_ns"`
	End    int64  `json:"end_ns"`
	// Keys counts the items the phase touched: pruned entries for expire,
	// probe hits for probe, emitted pairs for emit/step, candidates for
	// score, cached entries for checkpoint.
	Keys int `json:"keys"`
	// Detail is a phase-specific scalar: evictions needed for score/evict,
	// evictions for the step root.
	Detail int64 `json:"detail"`
}

// Active is an in-flight span handle returned by Begin and BeginStep. It is
// a small value that lives on the caller's stack, so beginning and ending a
// span allocates nothing.
type Active struct {
	id     uint64
	parent uint64
	step   int
	phase  Phase
	begin  int64
}

// Options configures a Recorder. The zero value is usable: the wall clock,
// 1-in-64 key sampling with seed 0, and no bundle directory. The memory
// budget is fixed: a 1024-span ring, 128 tracked keys with 32 events each,
// and 16 bundles.
type Options struct {
	// Clock supplies span timestamps in nanoseconds; nil is the wall clock.
	Clock func() int64
	// SampleSeed seeds the lifecycle key sampler; the engine passes the
	// operator seed so sampling is replay-stable.
	SampleSeed uint64
	// SampleEvery tracks roughly one in SampleEvery keys, rounded up to a
	// power of two. 1 tracks every key; default 64.
	SampleEvery int
	// BundleDir, when non-empty, enables WriteBundle.
	BundleDir string
}

// Recorder is the flight recorder: a fixed-memory span ring plus the
// sampled lifecycle store. All methods are safe for concurrent use; the
// write path (Begin/End/Life) takes one short mutex hold and allocates
// nothing at steady state.
type Recorder struct {
	mu sync.Mutex

	clock func() int64

	ring   [ringSize]Span
	next   int
	total  uint64
	nextID uint64

	curStep   int
	curParent uint64

	sampleSeed uint64
	sampleMask uint64
	keys       map[int]*keyLife

	bundleDir      string
	bundlesWritten int
}

// New returns a recorder for the options; see Options for defaults.
func New(opts Options) *Recorder {
	r := &Recorder{
		clock:      opts.Clock,
		sampleSeed: opts.SampleSeed,
		sampleMask: uint64(nextPow2(opts.SampleEvery, 64) - 1),
		keys:       make(map[int]*keyLife, maxTrackedKeys),
		bundleDir:  opts.BundleDir,
	}
	if r.clock == nil {
		r.clock = wallNanos
	}
	return r
}

// wallNanos is the recorder's clock when Options.Clock is nil.
func wallNanos() int64 { return time.Now().UnixNano() }

// LogicalClock returns a deterministic clock: successive calls return 1, 2,
// 3, … Use it for replay and export-determinism tests, where span
// timestamps must be identical across identical seeded runs.
func LogicalClock() func() int64 {
	var c atomic.Int64
	return func() int64 { return c.Add(1) }
}

// Clock returns the recorder's clock, for callers (the engine's latency
// telemetry) that must share the recorder's time base.
func (r *Recorder) Clock() func() int64 { return r.clock }

// BeginStep opens the root span for one operator step. Subsequent Begin
// calls (until EndStep) record children of this span.
func (r *Recorder) BeginStep(step int) Active {
	r.mu.Lock()
	r.nextID++
	a := Active{id: r.nextID, step: step, phase: PhaseStep, begin: r.clock()}
	r.curStep = step
	r.curParent = a.id
	r.mu.Unlock()
	return a
}

// Begin opens a child span of the current step under the given phase.
func (r *Recorder) Begin(phase Phase) Active {
	r.mu.Lock()
	r.nextID++
	a := Active{id: r.nextID, parent: r.curParent, step: r.curStep, phase: phase, begin: r.clock()}
	r.mu.Unlock()
	return a
}

// End closes a span and writes it to the ring.
func (r *Recorder) End(a Active, keys int, detail int64) {
	r.mu.Lock()
	r.writeLocked(a, keys, detail)
	r.mu.Unlock()
}

// EndStep closes a step root span and detaches the current-parent state.
func (r *Recorder) EndStep(a Active, keys int, detail int64) {
	r.mu.Lock()
	r.writeLocked(a, keys, detail)
	r.curParent = 0
	r.mu.Unlock()
}

func (r *Recorder) writeLocked(a Active, keys int, detail int64) {
	r.ring[r.next] = Span{
		ID:     a.id,
		Parent: a.parent,
		Step:   a.step,
		Phase:  a.phase,
		Begin:  a.begin,
		End:    r.clock(),
		Keys:   keys,
		Detail: detail,
	}
	r.next = (r.next + 1) % ringSize
	r.total++
}

// TotalSpans returns the number of spans ever recorded, including those the
// ring has overwritten.
func (r *Recorder) TotalSpans() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Spans returns a copy of the retained spans in record (completion) order,
// oldest first.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spansLocked()
}

func (r *Recorder) spansLocked() []Span {
	n := len(r.ring)
	if r.total < uint64(n) {
		n = int(r.total)
	}
	out := make([]Span, 0, n)
	if r.total >= uint64(len(r.ring)) {
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	} else {
		out = append(out, r.ring[:r.next]...)
	}
	return out
}

// LastSpans returns the newest n retained spans, oldest first; n <= 0
// returns an empty (non-nil) slice and n beyond the retained count returns
// everything. It backs the daemon's /spans route.
func (r *Recorder) LastSpans(n int) []Span {
	spans := r.Spans()
	if n < 0 {
		n = 0
	}
	if n < len(spans) {
		spans = spans[len(spans)-n:]
	}
	return spans
}

// nextPow2 rounds v up to a power of two, substituting def (itself a power
// of two) when v is not positive.
func nextPow2(v, def int) int {
	if v <= 0 {
		return def
	}
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}
