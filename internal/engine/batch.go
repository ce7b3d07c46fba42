package engine

// Batched ingress: the amortized entry points. StepRun, which the sharded
// runtime (internal/shardrt) drives the operator through, and StepBatch are
// semantically a loop of Step calls — the per-step state machine is the
// shared stepCore, so batched and looped execution stay byte-identical — but
// they pay the cross-step overhead (clock reads, the latency-histogram
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
// end (see docs/observability.md, "Batched steps"). A step with a key outside
// the domain panics as Step does, after the steps before it.
//
// The returned slice is owned by the operator and valid only until the next
// Step, StepBatch or StepRun call; callers that retain pairs must copy them.
func (j *Join) StepBatch(batch []TuplePair) []Pair {
	if len(batch) == 0 {
		return nil
	}
	b := j.StepRun(batch)
	j.batchOut = releaseTail(appendPairs(j.batchOut[:0], b), len(j.batchOut))
	return j.batchOut
}

// StepRun is StepBatch with the pairs in numbered form (see Batch). The Batch
// and its slices are owned by the operator and valid only until the next
// Step, StepBatch or StepRun call.
func (j *Join) StepRun(batch []TuplePair) Batch {
	if len(batch) == 0 {
		return Batch{Time: j.time}
	}
	var startNs int64
	if j.stepLatency != nil || j.rec != nil {
		startNs = j.now()
	}
	// A batch of its own epoch; one that wraps to 0 clears every stamp first.
	held := len(j.run.Tuples)
	if j.epoch++; j.epoch == 0 {
		for i := range j.slots {
			j.slots[i].stamp = 0
		}
		j.epoch = 1
	}
	j.run = Batch{Tuples: j.run.Tuples[:0], Pairs: j.run.Pairs[:0], Time: j.time}
	pairs, evictions := 0, 0
	for i := range batch {
		p, e := j.stepCore(batch[i].R, batch[i].S)
		pairs += p
		evictions += e
	}
	j.run.Tuples = releaseTail(j.run.Tuples, held)
	j.observeStep(startNs, pairs, evictions, len(batch))
	return j.run
}
