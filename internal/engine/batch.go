package engine

// Batched ingress: the amortized entry point the sharded runtime
// (internal/shardrt) drives the operator through. StepBatch is semantically
// a loop of Step calls — the per-step state machine is the shared stepCore,
// so batched and looped execution stay byte-identical — but it pays the
// cross-step overhead (clock reads, the latency-histogram observation,
// counter flushes, output-slice bookkeeping) once per batch instead of once
// per tuple.

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
// end (see docs/observability.md, "Batched steps"). A step with a key outside
// the domain panics as Step does, after the steps before it.
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
