// Package engine wraps the joining framework as an online operator a stream
// system can embed: tuples are pushed in step by step and the operator emits
// the actual joined pairs (not just counts), applies the configured
// replacement policy under the cache budget, and exposes cache snapshots and
// running metrics. It is also the paper's simulator: Run steps a Join once
// per arrival pair and returns internal/join's Result, so the figures and the
// daemon share one operator loop.
//
// The hot path is indexed: equijoins probe a per-stream fixed open-addressed
// table from join key to a chain of same-key slots, band joins probe a
// per-stream ordered (value, ID) index, and window expiry pops the head of an
// arrival-order list threaded through the cache. All per-step scratch (sorted
// victim positions, match buffers, the output slice) is reused across steps,
// and a replacement decision moves nothing: the cache is a table of slots,
// the candidate slice a policy sees is that table itself (see Join.cache), a
// surviving arrival is written into the slot its victim held, and an index
// posting is a slot number.
// ReferenceJoin in this package is the obvious linear-scan implementation
// with identical semantics; the differential tests hold the two
// byte-identical.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"stochstream/internal/core"
	"stochstream/internal/flightrec"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
	"stochstream/internal/telemetry"
)

// Tuple is a stream tuple flowing through the operator. Payload carries the
// caller's record; the operator only inspects Key.
type Tuple struct {
	// Key is the join attribute value.
	Key int
	// Payload is opaque to the operator.
	Payload interface{}
	// Seq is a caller tag — the sharded runtime's ingress sequence number.
	// The operator never reads it: it is cached beside the payload,
	// checkpointed with it and echoed on both sides of every Pair, without a
	// box around the payload to carry it.
	Seq uint64
}

// Pair is one join result: the new arrival matched a cached tuple from the
// other stream, or the two arrivals of one step matched each other.
type Pair struct {
	// Time is the step at which the pair was produced.
	Time int
	// R and S are the two sides' tuples.
	R, S Tuple
	// SameTime marks the pair of the step's own two arrivals. Such pairs
	// are produced regardless of replacement decisions, which is why the
	// paper's MAX-subset accounting (and the simulator) excludes them; a
	// real operator still has to deliver them.
	SameTime bool
}

// Batch is a batch's output in numbered form: Tuples lists each tuple of the
// pairs once, at its first pair, and Pairs (Step's order) name them by index.
// Time is the time of the batch's first step.
type Batch struct {
	Tuples []Tuple
	Pairs  []PairRef
	Time   int
}

// PairRef is one pair of a Batch: a Pair with its tuples as numbers and its
// step as an offset from Batch.Time, 16 bytes and no pointer.
type PairRef struct {
	R, S     uint32
	Step     uint32
	SameTime bool
}

// Config configures the operator; it reuses the simulator's configuration
// semantics (cache size, window, band, models).
type Config struct {
	CacheSize int
	// Window > 0 enables sliding-window semantics.
	Window int
	// Band > 0 generalizes the equijoin to |kR − kS| <= Band.
	Band int
	// Procs carries the stream models for model-driven policies.
	Procs [2]process.Process
	// Policy decides replacements; nil defaults to HEEB with the models (or
	// RAND when no models are given).
	//lint:ignore fingerprintcover the checkpoint fingerprints the policy by name (PolicyName); the value is construction wiring, and a name mismatch already fails restore
	Policy join.Policy
	// Seed drives the policy's randomness.
	Seed uint64
	// Telemetry, when non-nil, instruments the operator: a latency histogram
	// observed once per Step or batch, the engine_* counters, the policy's
	// decision and eviction counters, and every telemetry.TraceInterval-th
	// decision re-scored into the decision trace when the policy is a
	// telemetry.CandidateScorer. Counters flush once per batch, so no clock
	// is read per decision. nil keeps the hot path bare.
	Telemetry *telemetry.Registry
	// Flight, when non-nil, attaches the flight recorder: Step is decomposed
	// into recorded phase spans, a hash-sampled key subset gets lifecycle
	// records, and faults (invariant failures, recovered panics) dump
	// diagnostics bundles when the recorder has a bundle directory. nil
	// keeps the hot path bare. See internal/flightrec.
	Flight *flightrec.Recorder
}

// Metrics is a snapshot of the operator's counters.
//
// Update semantics (the PR-1 review drift around CacheLen made this worth
// pinning): Steps, Pairs, SameTimePairs, Evictions and Expired are
// incremented inline on the Step hot path, so a Metrics value reflects
// every step completed before the snapshot; CacheLen alone is recomputed
// from the live cache at snapshot time by Metrics(), so it is exact even
// before the first step and on admit-without-evict steps. The
// Config.Telemetry registry carries only the inline class
// (engine_steps_total, engine_pairs_total, engine_evictions_total and the
// step-latency histogram); cache occupancy is read via Metrics().
// See docs/observability.md, "Snapshot semantics".
type Metrics struct {
	// Steps counts the steps taken; a partitioned operator's clock (Time)
	// also moves past the steps it skips.
	Steps int
	// Pairs counts all emitted results; SameTimePairs the subset produced
	// by a step's own two arrivals (Pairs − SameTimePairs is the
	// policy-dependent MAX-subset count the simulator reports).
	Pairs         int
	SameTimePairs int
	Evictions     int
	// Expired counts window-expired tuples pruned from the cache before
	// candidate assembly. Pruned slots are immediately reusable, so they
	// never consume replacement decisions.
	Expired  int
	CacheLen int
}

// Join is a step-driven binary stream join operator. It is not safe for
// concurrent use; wrap calls in the caller's serialization or use Run.
type Join struct {
	cfg    Config
	policy join.Policy
	// eager marks a join.EagerEvictor policy, asked at every step and allowed
	// to discard more than the overflow.
	eager bool
	// arrivals is the policy when it counts arrivals (PROB, LIFE).
	//lint:ignore snapcomplete the policy field under another type: construction wiring, and what the observer accumulates leaves through the policy's own SnapshotState
	arrivals join.ArrivalObserver
	hists    [2]*process.History
	state    *join.State
	// cache is a dense table of slots, in no order: an entry stays in the slot
	// it was admitted to until it leaves. A surviving arrival takes the slot
	// of a victim of its own decision (lowest slot first, R before S) and is
	// appended only when none is left; a slot freed with no arrival to fill it
	// (window expiry) is closed by the last slot's entry. The layout
	// is state — a positional policy's next draw depends on it — so
	// checkpoints carry the cache in slot order.
	//
	// The slice is pointer-free and doubles as the policy's candidate slice:
	// a replacement decision writes the step's two arrivals into its spare
	// capacity and hands policy.Evict cache[:n+2:n+2] — no per-step copy, and
	// the clamped capacity keeps a policy's append out of engine memory.
	// slots[i] is the rest of cache[i]'s entry, kept apart so that candidate
	// slice stays []join.Tuple; every write to a slot (admit, fill, release,
	// restore) writes both alike.
	cache  []join.Tuple
	slots  []slot
	nextID int
	time   int
	m      Metrics

	// next and prev thread the slots into one list in arrival order, which is
	// ID order: head is the oldest entry (the one window expiry pops), tail
	// the newest, -1 stands for none.
	//lint:ignore snapcomplete pure function of the cache; Restore rebuilds it
	next, prev []int32
	//lint:ignore snapcomplete pure function of the cache; Restore rebuilds it
	ends

	// equi indexes the cache for Band == 0: per stream, a table of 2 × budget
	// cells (rounded up to a power of two) from join key to the first and last
	// slot of the key's chain; nextSame and prevSame link each slot to the
	// neighbouring entries of its (stream, key), in ascending ID order (entries
	// are appended as they arrive). A key's cell is emptied with its last
	// entry, so a drifting key domain (the trend models) reuses the same cells.
	//lint:ignore snapcomplete pure function of the cache; Restore re-enters every entry (enter), which rebuilds the index
	equi [2]keyIndex
	//lint:ignore snapcomplete pure function of the cache; Restore rebuilds it
	nextSame, prevSame []int32
	// ord indexes the cache for Band > 0: per stream, slots in ascending
	// (value, ID) order, probed by binary search over the band interval.
	//lint:ignore snapcomplete pure function of the cache; Restore re-enters every entry (enter), which rebuilds the index
	ord [2][]valSlot

	// Step-scoped scratch, reused across steps. run is the epoch-th batch's
	// output; out writes it out for Step, batchOut for StepBatch, distinct so
	// an interleaved Step/StepBatch sequence cannot alias a still-visible
	// result slice sooner than the "valid until the next call" contract.
	run      Batch  //lint:ignore snapcomplete step-scoped scratch, dead between calls
	epoch    uint32 //lint:ignore snapcomplete step-scoped scratch: stamps of an earlier batch name no tuple, and Restore drops them
	out      []Pair //lint:ignore snapcomplete step-scoped scratch, dead between calls
	batchOut []Pair //lint:ignore snapcomplete step-scoped scratch, dead between calls
	victims  []int  //lint:ignore snapcomplete step-scoped scratch, dead between calls
	probeR   []int  //lint:ignore snapcomplete step-scoped scratch, dead between calls
	probeS   []int  //lint:ignore snapcomplete step-scoped scratch, dead between calls

	// Telemetry handles, resolved once in NewJoin so Step pays only clock
	// reads and atomic writes; all nil when Config.Telemetry is nil. scorer
	// is the policy when it can explain its decisions into the trace.
	stepLatency   *telemetry.Histogram
	stepCount     *telemetry.Counter
	pairCount     *telemetry.Counter
	evictCount    *telemetry.Counter
	expiredCount  *telemetry.Counter
	decisionCount *telemetry.Counter
	policyEvicts  *telemetry.Counter
	scorer        telemetry.CandidateScorer
	// decisions counts the policy's Evict calls, for trace sampling.
	decisions uint64 //lint:ignore snapcomplete telemetry's sampling phase, not operator state: checkpoints match with telemetry on and off

	// Flight-recorder state (see flight.go). rec is Config.Flight (nil keeps
	// the hot path bare); now is the resolved clock — the recorder's when one
	// is attached, the wall seam otherwise.
	rec *flightrec.Recorder
	now func() int64
}

// valSlot is one ordered-index posting.
type valSlot struct{ v, slot int }

// slot is a cache entry besides its join.Tuple, in one record: the caller's
// payload and tag, and the stamp epoch<<32 | n that makes it tuple n of that
// epoch's batch (see number) — scratch, not state, which Restore drops.
type slot struct {
	payload interface{}
	seq     uint64
	stamp   uint64
}

// NewJoin validates the configuration and builds the operator.
func NewJoin(cfg Config) (*Join, error) {
	return newJoin(cfg, stats.NewRNG(cfg.Seed), stats.NewRNG(cfg.Seed+1))
}

// newJoin is NewJoin with the random sources of the policy's state view and
// of its Reset given; Run hands the caller's one source to both.
func newJoin(cfg Config, stateRNG, policyRNG *stats.RNG) (*Join, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pol := defaultPolicy(cfg)
	j := &Join{
		cfg:    cfg,
		policy: pol,
		hists:  [2]*process.History{process.NewHistory(), process.NewHistory()},
		ends:   ends{head: -1, tail: -1},
	}
	j.arrivals, _ = pol.(join.ArrivalObserver)
	_, j.eager = pol.(join.EagerEvictor)
	j.initFlight()
	if cfg.Band == 0 {
		j.equi = [2]keyIndex{newKeyIndex(cfg.CacheSize), newKeyIndex(cfg.CacheSize)}
	}
	if reg := cfg.Telemetry; reg != nil {
		j.stepLatency = reg.Histogram("engine_step_latency_ns")
		j.stepCount = reg.Counter("engine_steps_total")
		j.pairCount = reg.Counter("engine_pairs_total")
		j.evictCount = reg.Counter("engine_evictions_total")
		j.expiredCount = reg.Counter("engine_expired_total")
		label := `{policy="` + pol.Name() + `"}`
		j.decisionCount = reg.Counter("policy_decisions_total" + label)
		j.policyEvicts = reg.Counter("policy_evictions_total" + label)
		j.scorer, _ = pol.(telemetry.CandidateScorer)
	}
	simCfg := join.Config{CacheSize: cfg.CacheSize, Window: cfg.Window, Band: cfg.Band, Procs: cfg.Procs}
	j.state = &join.State{Hists: j.hists, Config: simCfg, RNG: stateRNG}
	pol.Reset(simCfg, policyRNG)
	return j, nil
}

// Step feeds one arrival from each stream (the paper's synchronized-step
// model) and returns the result pairs produced at this step. Same-time
// arrivals are joined and emitted too — a real operator must deliver them
// even though replacement policies cannot influence them.
//
// Each key must be in [MinKey, MaxKey] or be process.NoValue. Step panics on
// any other key before it changes any state, as it does on a policy's invalid
// answer: a key outside the domain would alias another in the equi index.
// StepChecked returns ErrBadTuple for it instead.
//
// The returned slice is owned by the operator and valid only until the next
// Step, StepBatch or StepRun call; callers that retain pairs must copy them.
func (j *Join) Step(r, s Tuple) []Pair {
	b := j.StepRun([]TuplePair{{R: r, S: s}})
	j.out = releaseTail(appendPairs(j.out[:0], b), len(j.out))
	return j.out
}

// appendPairs appends b's pairs to out, each with its tuples.
func appendPairs(out []Pair, b Batch) []Pair {
	for _, p := range b.Pairs {
		out = append(out, Pair{Time: b.Time + int(p.Step), R: b.Tuples[p.R], S: b.Tuples[p.S], SameTime: p.SameTime})
	}
	return out
}

// releaseTail zeroes what the previous output, prev elements long in the
// buffer out reuses, holds beyond out's length, so that a long output's
// payloads are not kept reachable by the shorter ones after it. It costs what
// the output shrank by: nothing when out grew or moved to a larger array.
func releaseTail[T any](out []T, prev int) []T {
	if len(out) < prev {
		clear(out[len(out):prev])
	}
	return out
}

// stepCore is one step minus the per-call telemetry: it appends this step's
// pairs to the current batch and returns the pair and eviction counts. Step,
// StepBatch and StepRun wrap it — Step observes latency per call, the batched
// ones once per batch — so all share one state machine and stay
// byte-identical per step. A synchronized step (Both, Skip 0) is the paper's
// step; a one-sided step leaves the other side out of everything but its
// history (see TuplePair).
func (j *Join) stepCore(tp *TuplePair) (int, int) {
	if !inDomain(tp.R.Key) || !inDomain(tp.S.Key) || tp.Skip < 0 || tp.Arrivals > OnlyS {
		panic(fmt.Sprintf("engine: step refused: %v", errors.Join(checkKey(tp.R.Key), checkKey(tp.S.Key), checkStep(tp))))
	}
	t := j.time + tp.Skip
	var stepSpan, sp flightrec.Active
	if j.rec != nil {
		stepSpan = j.rec.BeginStep(t)
	}
	j.time = t + 1
	j.m.Steps++
	j.hists[core.StreamR].AppendAt(t, tp.R.Key)
	j.hists[core.StreamS].AppendAt(t, tp.S.Key)
	// The arrivals' keys: NoValue stands for a side with none, which probes
	// nothing and pairs with nothing.
	rk, sk := tp.R.Key, tp.S.Key
	switch tp.Arrivals {
	case OnlyR:
		sk = process.NoValue
	case OnlyS:
		rk = process.NoValue
	}
	if j.arrivals != nil {
		j.arrivals.ObserveArrivals(rk, sk)
	}
	j.state.Time = t

	// Admission happens below, but the tuple IDs are fixed now, so ingest
	// lifecycle events can carry them. arr lists the arrivals, R first.
	var arr [2]join.Tuple
	var sls [2]slot
	n := 0
	if tp.Arrivals != OnlyS {
		arr[n], sls[n] = join.Tuple{ID: j.nextID + n, Value: rk, Stream: core.StreamR, Arrived: t}, slot{payload: tp.R.Payload, seq: tp.R.Seq}
		n++
	}
	if tp.Arrivals != OnlyR {
		arr[n], sls[n] = join.Tuple{ID: j.nextID + n, Value: sk, Stream: core.StreamS, Arrived: t}, slot{payload: tp.S.Payload, seq: tp.S.Seq}
		n++
	}
	j.nextID += n
	if j.rec != nil {
		for _, a := range arr[:n] {
			j.lifeTuple(flightrec.LifeIngest, t, a, 0)
		}
		sp = j.rec.Begin(flightrec.PhaseExpire)
	}
	expired := j.expire(t)
	if j.rec != nil {
		j.rec.End(sp, expired, 0)
	}
	// An arrival enters the cache with its number in this batch, if it joined.
	// A one-sided step hands its one slot in for both sides: the other side's
	// key is NoValue, so that side is never numbered.
	n0 := len(j.run.Pairs)
	j.emitMatches(t, rk, sk, &sls[0], &sls[n-1])
	pairs := len(j.run.Pairs) - n0

	// Admission + replacement. The candidates are the cached entries in slot
	// order, then the arrivals.
	nCached := len(j.cache)
	need := nCached + n - j.cfg.CacheSize
	if need <= 0 {
		if !j.eager {
			for i := range arr[:n] {
				j.admit(arr[i], sls[i])
			}
			if j.rec != nil {
				for _, a := range arr[:n] {
					j.lifeTuple(flightrec.LifeAdmit, t, a, 0)
				}
			}
			j.closeStep(stepSpan, pairs, 0)
			return pairs, 0
		}
		need = 0
	}
	// The arrivals go into the cache's spare capacity; the cache's length
	// moves only once the policy's answer has been validated, so a policy
	// that panics or answers nonsense leaves the operator as it was.
	cands := append(j.cache, arr[0])
	if n == 2 {
		cands = append(cands, arr[1])
	}
	if cap(cands) > cap(j.cache) { // see emitMatches
		j.cache = cands[:nCached]
	}
	if j.rec != nil {
		sp = j.rec.Begin(flightrec.PhaseScore)
	}
	cands = cands[:len(cands):len(cands)]
	evict := j.policy.Evict(j.state, cands, need)
	if j.scorer != nil && j.decisions%telemetry.TraceInterval == 0 {
		j.cfg.Telemetry.TraceDecision(j.state, j.scorer, j.policy.Name(), cands, need, evict)
	}
	j.decisions++
	if j.rec != nil {
		j.rec.End(sp, len(cands), int64(need))
		sp = j.rec.Begin(flightrec.PhaseEvict)
	}
	victims := j.sortedVictims(evict, len(cands), need)
	// need is 1 or 2 here (the cache never exceeds its budget), so these
	// scans are a compare or two — and the cached victims, which sort ahead of
	// the arrivals, never outnumber the arrivals that survive, unless the
	// policy is eager.
	freed := victims
	for len(freed) > 0 && freed[len(freed)-1] >= nCached {
		freed = freed[:len(freed)-1]
	}
	for i := range arr[:n] {
		if !slices.Contains(victims, nCached+i) {
			freed = j.place(t, arr[i], sls[i], freed)
		}
	}
	if j.eager {
		// The slots no arrival took close from the highest down, so the last
		// slot that closes each hole is never one still to be freed.
		for k := len(freed) - 1; k >= 0; k-- {
			if j.rec != nil {
				j.lifeTuple(flightrec.LifeEvict, t, j.cache[freed[k]], 0)
			}
			j.release(freed[k])
		}
	}
	j.m.Evictions += len(victims)
	if j.rec != nil {
		for i, a := range arr[:n] {
			kind := flightrec.LifeAdmit
			if slices.Contains(victims, nCached+i) {
				kind = flightrec.LifeEvict
			}
			j.lifeTuple(kind, t, a, 0)
		}
		j.rec.End(sp, len(victims), int64(len(j.cache)))
	}
	j.closeStep(stepSpan, pairs, len(victims))
	return pairs, len(victims)
}

// sortedVictims validates a policy's answer against the decision it was
// asked for — exactly need distinct positions inside [0, total), or more for
// an eager policy — and returns the positions in ascending order. The result
// is step-scoped scratch: the policy's own slice is left untouched and nothing
// is mutated before the answer has passed. need is at most 2 (the cache never
// exceeds its budget), so one compare orders an answer of need positions.
func (j *Join) sortedVictims(evict []int, total, need int) []int {
	victims := append(j.victims[:0], evict...)
	if cap(victims) > cap(j.victims) { // see emitMatches
		j.victims = victims
	}
	if len(victims) != need {
		if !j.eager || len(victims) < need {
			panic(fmt.Sprintf("engine: policy %s returned %d evictions, need %d", j.policy.Name(), len(evict), need))
		}
		slices.Sort(victims)
	} else if len(victims) == 2 && victims[1] < victims[0] {
		victims[0], victims[1] = victims[1], victims[0]
	}
	for k, v := range victims {
		if v < 0 || v >= total || (k > 0 && v == victims[k-1]) {
			panic(fmt.Sprintf("engine: policy %s returned invalid eviction %d", j.policy.Name(), v))
		}
	}
	return victims
}

// place admits an arrival that survived its decision: into the lowest slot a
// cached victim of that decision still holds, evicting the victim, or behind
// the last slot when none is left. It returns the slots still to be filled.
func (j *Join) place(t int, tp join.Tuple, sl slot, freed []int) []int {
	if len(freed) == 0 {
		j.admit(tp, sl)
		return freed
	}
	s := freed[0]
	if j.rec != nil {
		j.lifeTuple(flightrec.LifeEvict, t, j.cache[s], 0)
	}
	j.indexRemove(s)
	unlink(j.next, j.prev, &j.ends, int32(s))
	j.cache[s], j.slots[s] = tp, sl
	j.enter(s)
	return freed[1:]
}

// release frees slot h when no arrival is there to take it (window expiry):
// the last slot's entry — stamp included — closes the hole, which repoints
// that one entry's posting and links, and the table shrinks by one.
func (j *Join) release(h int) {
	j.indexRemove(h)
	unlink(j.next, j.prev, &j.ends, int32(h))
	last := len(j.cache) - 1
	if h != last {
		j.indexRepoint(last, h)
		j.cache[h], j.slots[h] = j.cache[last], j.slots[last]
		relink(j.next, j.prev, &j.ends, int32(last), int32(h))
	}
	j.slots[last] = slot{} // release the payload
	j.cache, j.slots = j.cache[:last], j.slots[:last]
	j.next, j.prev = j.next[:last], j.prev[:last]
	j.nextSame, j.prevSame = j.nextSame[:last], j.prevSame[:last]
}

// ends are the first and last slots of a list threaded through the slots —
// the arrival list, or one key's chain — by per-slot links next and prev; -1
// stands for none.
type ends struct{ head, tail int32 }

// setLink points the link out of slot p at v — or, when p is none, the end
// that stands in for it.
func setLink(links []int32, end *int32, p, v int32) {
	if p < 0 {
		*end = v
	} else {
		links[p] = v
	}
}

// pushBack makes slot s the last of the list.
func pushBack(next, prev []int32, e *ends, s int32) {
	prev[s], next[s] = e.tail, -1
	setLink(next, &e.head, e.tail, s)
	e.tail = s
}

// unlink takes slot s out of the list.
func unlink(next, prev []int32, e *ends, s int32) {
	p, n := prev[s], next[s]
	setLink(next, &e.head, p, n)
	setLink(prev, &e.tail, n, p)
}

// relink puts slot to in the list where slot from is.
func relink(next, prev []int32, e *ends, from, to int32) {
	p, n := prev[from], next[from]
	prev[to], next[to] = p, n
	setLink(next, &e.head, p, to)
	setLink(prev, &e.tail, n, to)
}

// enter makes the entry just written to slot s the newest of the arrival
// list and indexes it. Entries enter in ascending ID order — a step's
// arrivals carry the largest IDs so far, Restore goes by ID — which is what
// keeps the list and every key's postings in ID order.
func (j *Join) enter(s int) {
	pushBack(j.next, j.prev, &j.ends, int32(s))
	j.indexAdd(s)
}

// expire evicts every window-expired entry before candidate assembly and
// returns how many there were. Arrival times are nondecreasing along the
// arrival list, so the expired entries are popped off its head.
func (j *Join) expire(t int) int {
	w := j.cfg.Window
	if w <= 0 {
		return 0
	}
	n := 0
	for ; j.head >= 0 && t-j.cache[j.head].Arrived > w; n++ {
		if j.rec != nil {
			j.lifeTuple(flightrec.LifeExpire, t, j.cache[j.head], 0)
		}
		j.release(int(j.head))
	}
	j.m.Expired += n
	if j.expiredCount != nil && n > 0 {
		j.expiredCount.Add(int64(n))
	}
	return n
}

// emitMatches probes the index with the arrivals' keys rk and sk and appends
// the pairs to the batch in the cached partners' ID (arrival) order — the
// order the sharded runtime's merge rests on — then the same-time pair if the
// arrivals match, numbering each tuple (rs and ss are the arrivals').
func (j *Join) emitMatches(t, rk, sk int, rs, ss *slot) {
	out := j.run.Pairs
	n0 := len(out)
	step := uint32(t - j.run.Time)
	var sp flightrec.Active
	if j.rec != nil {
		sp = j.rec.Begin(flightrec.PhaseProbe)
	}
	// A scratch buffer is stored back only when it grew: storing a slice is a
	// write barrier while the collector marks, and a shard takes a step an
	// arrival.
	rm := j.probeMatches(core.StreamR, sk, j.probeR[:0])
	sm := j.probeMatches(core.StreamS, rk, j.probeS[:0])
	if cap(rm) > cap(j.probeR) {
		j.probeR = rm
	}
	if cap(sm) > cap(j.probeS) {
		j.probeS = sm
	}
	if j.rec != nil {
		j.rec.End(sp, len(rm)+len(sm), 0)
		sp = j.rec.Begin(flightrec.PhaseEmit)
	}
	// Merge the two ID-ascending lists of slots; an entry appears in at most
	// one of them (they are disjoint streams).
	i, k := 0, 0
	for i < len(rm) || k < len(sm) {
		if k >= len(sm) || (i < len(rm) && j.cache[rm[i]].ID < j.cache[sm[k]].ID) {
			c := rm[i]
			i++
			out = append(out, PairRef{R: j.number(&j.slots[c], j.cache[c].Value), S: j.number(ss, sk), Step: step})
			if j.rec != nil {
				j.lifeMatch(t, j.cache[c], sk, core.StreamS)
			}
		} else {
			c := sm[k]
			k++
			out = append(out, PairRef{R: j.number(rs, rk), S: j.number(&j.slots[c], j.cache[c].Value), Step: step})
			if j.rec != nil {
				j.lifeMatch(t, j.cache[c], rk, core.StreamR)
			}
		}
	}
	sameTime := 0
	if keysMatch(rk, sk, j.cfg.Band) {
		out = append(out, PairRef{R: j.number(rs, rk), S: j.number(ss, sk), Step: step, SameTime: true})
		j.m.SameTimePairs++
		sameTime = 1
		if j.rec != nil {
			j.lifeKey(flightrec.LifeMatch, t, rk, core.StreamR, sk)
			if sk != rk {
				j.lifeKey(flightrec.LifeMatch, t, sk, core.StreamS, rk)
			}
		}
	}
	j.m.Pairs += len(out) - n0
	j.run.Pairs = out
	if j.rec != nil {
		j.rec.End(sp, len(out)-n0, int64(sameTime))
	}
}

// number returns the number in the current batch of the entry sl, key k,
// listing its tuple at its first pair: a cached tuple keeps one number
// however many arrivals it joins, and an arrival that survives is cached with
// its number.
func (j *Join) number(sl *slot, k int) uint32 {
	if uint32(sl.stamp>>32) == j.epoch {
		return uint32(sl.stamp)
	}
	j.run.Tuples = append(j.run.Tuples, Tuple{Key: k, Payload: sl.payload, Seq: sl.seq})
	n := uint32(len(j.run.Tuples) - 1)
	sl.stamp = uint64(j.epoch)<<32 | uint64(n)
	return n
}

// lifeMatch records a match for both sides of one emitted pair: the cached
// tuple's key (with its ID) and, under a band join where the keys differ,
// the arrival's key too. Callers guard on j.rec != nil.
func (j *Join) lifeMatch(t int, cached join.Tuple, arrivalKey int, arrivalStream core.StreamID) {
	j.lifeTuple(flightrec.LifeMatch, t, cached, arrivalKey)
	if arrivalKey != cached.Value {
		j.lifeKey(flightrec.LifeMatch, t, arrivalKey, arrivalStream, cached.Value)
	}
}

// probeMatches appends the slots of cached entries on the given stream whose
// value joins an arrival with key k, in ascending ID order.
func (j *Join) probeMatches(side core.StreamID, k int, slots []int) []int {
	if k == process.NoValue {
		return slots
	}
	if j.cfg.Band == 0 {
		x := &j.equi[side]
		if i := x.find(int32(k)); i >= 0 {
			for s := x.cells[i].head; s >= 0; s = j.nextSame[s] {
				slots = append(slots, int(s))
			}
		}
		return slots
	}
	ord := j.ord[side]
	lo, hi := k-j.cfg.Band, k+j.cfg.Band
	n0 := len(slots)
	i := sort.Search(len(ord), func(x int) bool { return ord[x].v >= lo })
	for ; i < len(ord) && ord[i].v <= hi; i++ {
		slots = append(slots, ord[i].slot)
	}
	// The interval is value-ordered; restore ID order for emission.
	slices.SortFunc(slots[n0:], func(a, b int) int { return j.cache[a].ID - j.cache[b].ID })
	return slots
}

// admit appends an entry to the cache, as its newest.
func (j *Join) admit(tp join.Tuple, sl slot) {
	j.grow(tp, sl)
	j.enter(len(j.cache) - 1)
}

// grow adds a slot holding the given entry, which has yet to enter the
// arrival list and the index.
func (j *Join) grow(tp join.Tuple, sl slot) {
	j.cache = append(j.cache, tp)
	j.slots = append(j.slots, sl)
	j.next, j.prev = append(j.next, -1), append(j.prev, -1)
	j.nextSame, j.prevSame = append(j.nextSame, -1), append(j.prevSame, -1)
}

// indexAdd posts the entry in slot s, the newest of its key (see enter).
func (j *Join) indexAdd(s int) {
	tp := j.cache[s]
	if tp.Value == process.NoValue {
		return // can never join; not worth a posting
	}
	if j.cfg.Band == 0 {
		c := j.equi[tp.Stream].insert(int32(tp.Value))
		pushBack(j.nextSame, j.prevSame, &c.ends, int32(s))
		return
	}
	ord := j.ord[tp.Stream]
	i := sort.Search(len(ord), func(k int) bool { return ord[k].v > tp.Value })
	ord = append(ord, valSlot{})
	copy(ord[i+1:], ord[i:])
	ord[i] = valSlot{v: tp.Value, slot: s}
	j.ord[tp.Stream] = ord
}

// ordFind locates the ordered-index posting of the entry in slot s, which
// still holds it.
func (j *Join) ordFind(s int) int {
	tp, ord := j.cache[s], j.ord[j.cache[s].Stream]
	return sort.Search(len(ord), func(k int) bool {
		return ord[k].v > tp.Value || (ord[k].v == tp.Value && j.cache[ord[k].slot].ID >= tp.ID)
	})
}

// indexRemove drops the posting of the entry in slot s, which still holds it.
func (j *Join) indexRemove(s int) {
	tp := j.cache[s]
	if tp.Value == process.NoValue {
		return
	}
	if j.cfg.Band == 0 {
		x := &j.equi[tp.Stream]
		i := x.find(int32(tp.Value))
		unlink(j.nextSame, j.prevSame, &x.cells[i].ends, int32(s))
		if x.cells[i].head < 0 {
			x.remove(i)
		}
		return
	}
	i := j.ordFind(s)
	j.ord[tp.Stream] = slices.Delete(j.ord[tp.Stream], i, i+1)
}

// indexRepoint rewrites the posting of the entry in slot from, about to move
// to slot to; its place among its key's postings, which goes by ID, is
// unchanged.
func (j *Join) indexRepoint(from, to int) {
	tp := j.cache[from]
	if tp.Value == process.NoValue {
		return
	}
	if j.cfg.Band > 0 {
		j.ord[tp.Stream][j.ordFind(from)].slot = to
		return
	}
	x := &j.equi[tp.Stream]
	relink(j.nextSame, j.prevSame, &x.cells[x.find(int32(tp.Value))].ends, int32(from), int32(to))
}

// keysMatch reports whether two join keys match under the band predicate;
// NoValue never matches (and is kept away from the band arithmetic, whose
// interval endpoints would be meaningless near it).
func keysMatch(a, b, band int) bool {
	if a == process.NoValue || b == process.NoValue {
		return false
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= band
}

// Metrics returns the operator's counters. CacheLen is recomputed from the
// live cache at snapshot time, so it is accurate on every path — including
// before the first step and on steps that admit without evicting.
func (j *Join) Metrics() Metrics {
	m := j.m
	m.CacheLen = len(j.cache)
	return m
}

// Time is the operator's clock: the number of the streams' steps it has
// stepped through, the skipped ones included (see TuplePair.Skip).
func (j *Join) Time() int { return j.time }

// Snapshot returns the cached tuples (keys and streams) in slot order — the
// candidate order a policy sees; sort by ID for arrival order — for
// observability and tests.
func (j *Join) Snapshot() []join.Tuple {
	return append(make([]join.Tuple, 0, len(j.cache)), j.cache...)
}

// defaultPolicy resolves Config.Policy: HEEB when models are available,
// RAND otherwise.
func defaultPolicy(cfg Config) join.Policy {
	if cfg.Policy != nil {
		return cfg.Policy
	}
	if cfg.Procs[0] != nil && cfg.Procs[1] != nil {
		return newDefaultHEEB()
	}
	return &randPolicy{}
}

// newDefaultHEEB builds the default model-driven policy: HEEB with α derived
// from the cache size (the paper's fallback choice).
func newDefaultHEEB() join.Policy {
	return policy.NewHEEB(policy.HEEBOptions{})
}

// randPolicy is the paper's RAND baseline and the default without stream
// models: n victims uniform over the n-subsets of the candidates, in n draws.
type randPolicy struct {
	rng *stats.RNG
	// picks backs the returned victims. The engine consumes them before its
	// next Evict call (sortedVictims copies them first thing), so reusing the
	// buffer across decisions is safe; it is rewritten whole every call.
	//lint:ignore snapcomplete step-scoped scratch, dead between calls
	picks []int
}

func (p *randPolicy) Name() string                        { return "RAND" }
func (p *randPolicy) Reset(_ join.Config, rng *stats.RNG) { p.rng = rng }
func (p *randPolicy) Evict(_ *join.State, cands []join.Tuple, n int) []int {
	p.picks = p.rng.Sample(len(cands), n, p.picks)
	return p.picks
}

// SnapshotState implements join.StateSnapshotter: the private RNG is the
// policy's only state.
func (p *randPolicy) SnapshotState() ([]byte, error) { return p.rng.MarshalBinary() }

// RestoreState implements join.StateSnapshotter.
func (p *randPolicy) RestoreState(data []byte) error { return p.rng.UnmarshalBinary(data) }
