package telemetry

import (
	"sync"

	"stochstream/internal/join"
)

// TraceInterval is the decision-trace sampling interval: an operator records
// its 1st, 65th, 129th, … eviction decision. A record copies the whole
// candidate set, so the interval is what bounds the trace's share of an
// instrumented run (the ledger's obs.overhead_share prices the whole layer)
// while the 512-record ring still fills within a few thousand decisions.
const TraceInterval = 64

// TraceCandidate is one candidate tuple as the policy saw it at a decision:
// its key, stream, arrival time, the policy's score (HEEB's H_x value,
// FlowExpect's expected arc benefit) and whether it was chosen for eviction.
type TraceCandidate struct {
	Key     int     `json:"key"`
	Stream  string  `json:"stream"`
	Arrived int     `json:"arrived"`
	Score   float64 `json:"score"`
	Evicted bool    `json:"evicted"`
}

// DecisionRecord is one eviction decision: the step it happened at, the
// policy that made it, how many victims were required, and the full scored
// candidate set. It is what lets a paper-vs-implementation discrepancy be
// replayed: the record shows exactly which H_x values the policy compared.
type DecisionRecord struct {
	Step       int              `json:"step"`
	Policy     string           `json:"policy"`
	Need       int              `json:"need"`
	Candidates []TraceCandidate `json:"candidates"`
}

// TraceDecision records one eviction decision made at step: the candidates
// the policy saw, each with the score it compared (scores, from the policy's
// join.Scorer), and which of them its answer evict chose. The operator
// validates evict only after this, so a position outside the candidates
// marks nothing.
func (r *Registry) TraceDecision(step int, policy string, cands []join.Tuple, scores []float64, need int, evict []int) {
	rec := DecisionRecord{Step: step, Policy: policy, Need: need, Candidates: make([]TraceCandidate, len(cands))}
	for i, c := range cands {
		rec.Candidates[i] = TraceCandidate{Key: c.Value, Stream: c.Stream.String(), Arrived: c.Arrived}
		if i < len(scores) {
			rec.Candidates[i].Score = scores[i]
		}
	}
	for _, i := range evict {
		if i >= 0 && i < len(cands) {
			rec.Candidates[i].Evicted = true
		}
	}
	r.trace.Record(rec)
}

// Ring is a fixed-capacity ring buffer of a registry's DecisionRecords.
// Record is O(1) and overwrites the oldest entry when full; Records returns a
// chronological copy. The buffer is allocated by the first Record, so a ring nothing
// writes to — every ring while telemetry is off — holds no records' worth
// of memory. A mutex (not atomics) is fine here: records are rare next to
// per-step metric writes, and a record is a composite value.
type Ring struct {
	mu    sync.Mutex
	size  int
	buf   []DecisionRecord
	next  int
	total uint64
}

// NewRing returns a ring holding the last capacity records.
func NewRing(capacity int) *Ring {
	return &Ring{size: max(capacity, 1)}
}

// Record appends one record, evicting the oldest when the ring is full.
func (t *Ring) Record(rec DecisionRecord) {
	t.mu.Lock()
	if t.buf == nil {
		t.buf = make([]DecisionRecord, 0, t.size)
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, rec)
	} else {
		t.buf[t.next] = rec
		t.next = (t.next + 1) % cap(t.buf)
	}
	t.total++
	t.mu.Unlock()
}

// Records returns the retained records, oldest first.
func (t *Ring) Records() []DecisionRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]DecisionRecord, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Last returns the newest n records, oldest first (all of them when n exceeds
// the retained count).
func (t *Ring) Last(n int) []DecisionRecord {
	recs := t.Records()
	if n < len(recs) {
		recs = recs[len(recs)-n:]
	}
	return recs
}
