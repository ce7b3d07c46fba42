package engine

// Batched ingress: the amortized entry points. StepRun, which the sharded
// runtime (internal/shardrt) drives the operator through, and StepBatch are
// semantically a loop of Step calls — the per-step state machine is the
// shared stepCore, so batched and looped execution stay byte-identical — but
// they pay the cross-step overhead (clock reads, the latency-histogram
// observation, counter flushes, output-slice bookkeeping) once per batch
// instead of once per tuple.

// TuplePair is one step of arrivals: one tuple from each stream, exactly like
// the two Step arguments — or, when Arrivals says so, one tuple from one
// stream. The zero Arrivals and Skip are the synchronized step Step takes.
type TuplePair struct {
	R, S Tuple
	// Arrivals is the sides that arrive at this operator. A one-sided step
	// (OnlyR, OnlyS) probes, pairs and admits the one arrival: its decision is
	// among the cached tuples plus that one, and no slot goes to the other
	// side. The other side's Key is still read, as the value its stream
	// produced at this step — its history records it — and nothing else of it.
	Arrivals Arrivals
	// Skip is how many steps of the streams' clock passed since the
	// operator's previous step without an arrival for it: a partitioned
	// operator (a shard) steps only when one of its keys arrives, on the
	// clock of the whole stream, so its window and its models' t0 are the
	// stream's own. It must not be negative.
	Skip int
}

// Arrivals names the sides of a TuplePair that arrive.
type Arrivals uint8

const (
	// Both is the synchronized step: an arrival on each stream.
	Both Arrivals = iota
	// OnlyR is a step with an arrival on stream R alone.
	OnlyR
	// OnlyS is a step with an arrival on stream S alone.
	OnlyS
)

// StepBatch feeds a batch of steps and returns every pair the batch produced,
// in step order (Pair.Time orders them). It is byte-identical to calling
// Step once per synchronized element; only the telemetry accounting differs:
// the step-latency histogram records one observation covering the whole
// batch, and the steps/pairs/evictions counters are flushed once at batch
// end (see docs/observability.md, "Batched steps"). A step with a key outside
// the domain, or a negative Skip, panics as Step does, after the steps before
// it.
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
	j.run = Batch{Tuples: j.run.Tuples[:0], Pairs: j.run.Pairs[:0], Time: j.time + max(batch[0].Skip, 0)}
	pairs, evictions, decisions := 0, 0, j.decisions
	for i := range batch {
		p, e := j.stepCore(&batch[i])
		pairs += p
		evictions += e
	}
	j.run.Tuples = releaseTail(j.run.Tuples, held)
	j.observeStep(startNs, pairs, evictions, int(j.decisions-decisions), len(batch))
	return j.run
}
