package engine

import (
	"fmt"

	"stochstream/internal/flightrec"
	"stochstream/internal/join"
)

// Batched ingress and live cache resizing: the amortized entry points the
// sharded runtime (internal/shardrt) drives the operator through. StepBatch
// is semantically a loop of Step calls — the per-step state machine is the
// shared stepCore, so batched and looped execution stay byte-identical — but
// it pays the cross-step overhead (clock reads, the latency-histogram
// observation, counter flushes, output-slice bookkeeping) once per batch
// instead of once per tuple.

// TuplePair is one synchronized step of arrivals for StepBatch: one tuple
// from each stream, exactly like the two Step arguments.
type TuplePair struct {
	R, S Tuple
}

// StepBatch feeds a batch of synchronized steps and returns every pair the
// batch produced, in step order (Pair.Time orders them). It is byte-identical
// to calling Step once per element; only the telemetry accounting differs:
// the step-latency histogram records one observation covering the whole
// batch, and the steps/pairs/evictions counters are flushed once at batch
// end (see docs/observability.md, "Batched steps").
//
// The returned slice is owned by the operator and valid only until the next
// Step or StepBatch call; callers that retain pairs must copy them.
func (j *Join) StepBatch(batch []TuplePair) []Pair {
	if len(batch) == 0 {
		return nil
	}
	var startNs int64
	if j.stepLatency != nil || j.rec != nil {
		startNs = j.now()
	}
	out := j.batchOut[:0]
	pairs, evictions := 0, 0
	for i := range batch {
		var p, e int
		out, p, e = j.stepCore(batch[i].R, batch[i].S, out)
		pairs += p
		evictions += e
	}
	j.batchOut = releaseTail(out, len(j.batchOut))
	j.observeStep(startNs, pairs, evictions, len(batch))
	return out
}

// Resize changes the cache budget in place, without a reconstruction. A
// larger budget takes effect on the next step; a smaller one evicts down
// immediately with the configured policy (candidates are the cached entries
// in slot order, with no arrivals appended; the victims' slots are released
// from the highest down), so the budget invariant
// len(cache) <= CacheSize — and with it CheckInvariants and the checkpoint
// fingerprint — holds as soon as Resize returns. The sharded runtime's
// budget rebalancer is the caller this exists for.
func (j *Join) Resize(newSize int) error {
	if newSize < 1 {
		return fmt.Errorf("engine: Resize(%d): cache size must be >= 1", newSize)
	}
	j.cfg.CacheSize = newSize
	j.state.Config.CacheSize = newSize
	need := len(j.cache) - newSize
	if need <= 0 {
		return nil
	}
	var sp flightrec.Active
	if j.rec != nil {
		sp = j.rec.Begin(flightrec.PhaseEvict)
	}
	n := len(j.cache)
	evict := j.policy.Evict(j.state, j.cache[:n:n], need)
	victims := j.sortedVictims(evict, n, need)
	for k := need - 1; k >= 0; k-- { // downwards: a release moves only the last slot
		if j.rec != nil {
			j.lifeTuple(flightrec.LifeEvict, j.time, j.cache[victims[k]], 0)
		}
		j.release(victims[k])
	}
	j.m.Evictions += need
	if j.evictCount != nil {
		j.evictCount.Add(int64(need))
	}
	if j.rec != nil {
		j.rec.End(sp, need, int64(len(j.cache)))
	}
	return nil
}

// Resize is Join.Resize on the oracle, so differential tests can mirror a
// rebalanced run step for step.
func (j *ReferenceJoin) Resize(newSize int) error {
	if newSize < 1 {
		return fmt.Errorf("engine: Resize(%d): cache size must be >= 1", newSize)
	}
	j.cfg.CacheSize = newSize
	j.state.Config.CacheSize = newSize
	need := len(j.cache) - newSize
	if need <= 0 {
		return nil
	}
	tuples := make([]join.Tuple, len(j.cache))
	for i, c := range j.cache {
		tuples[i] = c.t
	}
	evict := j.policy.Evict(j.state, tuples, need)
	if len(evict) != need {
		panic(fmt.Sprintf("engine: policy %s returned %d evictions, need %d", j.policy.Name(), len(evict), need))
	}
	drop := make(map[int]bool, need)
	for _, i := range evict {
		if i < 0 || i >= len(tuples) || drop[i] {
			panic(fmt.Sprintf("engine: policy %s returned invalid eviction %d", j.policy.Name(), i))
		}
		drop[i] = true
	}
	j.m.Evictions += need
	for i := len(j.cache) - 1; i >= 0; i-- {
		if drop[i] {
			j.release(i)
		}
	}
	return nil
}
