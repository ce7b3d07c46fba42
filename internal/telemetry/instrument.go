package telemetry

import (
	"time"

	"stochstream/internal/join"
	"stochstream/internal/stats"
)

// CandidateScorer is implemented by policies that can explain an eviction
// decision by scoring every candidate (HEEB's H_x values, FlowExpect's
// expected arc benefits). InstrumentedPolicy uses it to fill decision-trace
// records; policies without it still get latency and count metrics.
type CandidateScorer interface {
	ScoreCandidates(st *join.State, cands []join.Tuple) []float64
}

// DefaultTraceEvery is the default decision-trace sampling interval: one in
// every 64 eviction decisions is scored and recorded. Tracing re-runs the
// policy's scorer over the candidate set — roughly the cost of one extra
// Evict — so the interval is what bounds the re-scoring share of an
// instrumented run (the ledger's obs.overhead_share prices the whole layer)
// while the 512-record ring still fills within a few thousand decisions.
const DefaultTraceEvery = 64

// InstrumentedPolicy wraps any join.Policy with telemetry: an eviction-
// latency histogram, eviction/decision counters, a scoring-latency histogram
// (when the policy is a CandidateScorer) and sampled decision-trace records.
// Metric handles are resolved once per Reset, so Evict adds only clock reads
// and atomic writes to the wrapped policy's cost.
type InstrumentedPolicy struct {
	Inner join.Policy
	Reg   *Registry
	// TraceEvery records every Nth decision into Reg.Trace(); 0 uses
	// DefaultTraceEvery, negative disables tracing.
	TraceEvery int

	scorer       CandidateScorer // nil when Inner cannot explain decisions
	evictLatency *Histogram
	scoreLatency *Histogram
	decisions    *Counter
	evictions    *Counter
	n            uint64 // decisions seen, for trace sampling
}

// InstrumentPolicy wraps p with telemetry recorded into reg. Wrapping is
// idempotent. Callers that look for a policy's extensions (join.EagerEvictor,
// join.ArrivalObserver, join.StateSnapshotter) look behind the wrapper
// (Unwrap).
func InstrumentPolicy(p join.Policy, reg *Registry) join.Policy {
	if ip, ok := p.(*InstrumentedPolicy); ok {
		return ip
	}
	return &InstrumentedPolicy{Inner: p, Reg: reg}
}

// Name implements join.Policy.
func (p *InstrumentedPolicy) Name() string { return p.Inner.Name() }

// Unwrap returns the instrumented policy, so callers that need the concrete
// policy behind the telemetry wrapper (the engine's checkpoint looks for
// join.StateSnapshotter, its arrival feed for join.ArrivalObserver, its
// decision protocol for join.EagerEvictor) can reach it.
func (p *InstrumentedPolicy) Unwrap() join.Policy { return p.Inner }

// Reset implements join.Policy, resolving the policy-labeled metric handles.
func (p *InstrumentedPolicy) Reset(cfg join.Config, rng *stats.RNG) {
	label := `policy="` + p.Inner.Name() + `"`
	p.evictLatency = p.Reg.Histogram("policy_evict_latency_ns{" + label + "}")
	p.scoreLatency = p.Reg.Histogram("policy_score_latency_ns{" + label + "}")
	p.decisions = p.Reg.Counter("policy_decisions_total{" + label + "}")
	p.evictions = p.Reg.Counter("policy_evictions_total{" + label + "}")
	p.scorer, _ = p.Inner.(CandidateScorer)
	p.Inner.Reset(cfg, rng)
}

// wallNowNs is the registry clock's wall fallback, isolated here so the
// Registry.SetClock seam has exactly one wall-read site to displace.
func wallNowNs() int64 { return time.Now().UnixNano() }

// Evict implements join.Policy.
func (p *InstrumentedPolicy) Evict(st *join.State, cands []join.Tuple, n int) []int {
	start := p.Reg.nowNs()
	evict := p.Inner.Evict(st, cands, n)
	p.evictLatency.ObserveDuration(p.Reg.nowNs() - start)
	p.decisions.Inc()
	p.evictions.Add(int64(len(evict)))

	every := p.TraceEvery
	if every == 0 {
		every = DefaultTraceEvery
	}
	p.n++
	if p.scorer != nil && every > 0 && (p.n-1)%uint64(every) == 0 {
		p.recordTrace(st, cands, n, evict)
	}
	return evict
}

// recordTrace re-scores the candidates through the policy's own scorer and
// stores the decision for later replay.
func (p *InstrumentedPolicy) recordTrace(st *join.State, cands []join.Tuple, need int, evict []int) {
	start := p.Reg.nowNs()
	scores := p.scorer.ScoreCandidates(st, cands)
	p.scoreLatency.ObserveDuration(p.Reg.nowNs() - start)
	evicted := make(map[int]bool, len(evict))
	for _, i := range evict {
		evicted[i] = true
	}
	rec := DecisionRecord{
		Step:       st.Time,
		Policy:     p.Inner.Name(),
		Need:       need,
		Candidates: make([]TraceCandidate, len(cands)),
	}
	for i, c := range cands {
		score := 0.0
		if i < len(scores) {
			score = scores[i]
		}
		rec.Candidates[i] = TraceCandidate{
			Key:     c.Value,
			Stream:  c.Stream.String(),
			Arrived: c.Arrived,
			Score:   score,
			Evicted: evicted[i],
		}
	}
	p.Reg.Trace().Record(rec)
}
