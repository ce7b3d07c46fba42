// Package shardrt is the sharded operator runtime: it hash-partitions the
// join-key domain across N independent engine.Join instances, each with its
// own cache budget, telemetry registry, flight recorder and policy (so each
// shard can carry its own degradation ladder), and steps them batch by batch.
//
// A shard runs on the stream's clock. Each global step's arrivals go straight
// to their keys' shards at that step: both as one step when their keys share
// a shard, otherwise each as a one-sided step of its own shard
// (engine.TuplePair.Arrivals), which probes, pairs and admits that arrival
// alone and takes no slot for the other side. A step carries its gap since
// the shard's previous one and both streams' keys at the global step, so a
// shard's window counts global steps and its models condition on the
// streams' own (t0, x_t0). Every arrival is stepped by the dispatch that
// ingested it; nothing waits for a partner.
//
// Partitioning an equijoin by key is lossless: two tuples can only pair when
// their keys match, and matching keys hash to the same shard. What sharding
// changes is the cache budget — TotalCache is split across the shards, and a
// shard decides among its own tuples — so a sharded run is its own
// deterministic system: the per-shard differential harness holds each shard
// byte-identical to a ReferenceJoin fed the same stamped arrivals, and the
// merge-order pin holds the global emission order fixed. With one shard every
// step is two-sided and the run is the unsharded operator's.
//
// Throughput: the replacement policies score every cached candidate on each
// eviction, so decision cost is linear in the cache budget. Splitting one
// budget-C cache into N budget-C/N shards means an arrival's decision scores
// ~C/N candidates instead of ~C, an algorithmic win that needs no
// parallelism. Where the host has the cores, the goroutine that dispatches
// steps shards beside min(GOMAXPROCS, Shards) − 1 helpers New starts. See
// docs/performance.md, "Sharded runtime".
package shardrt

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"stochstream/internal/engine"
	"stochstream/internal/flightrec"
	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/telemetry"
)

// Step is one synchronized step of global arrivals: one tuple from each
// stream, exactly like the two engine.Step arguments. The tuples' Seq is
// ignored: the runtime tags every arrival with its own ingress sequence.
type Step struct {
	R, S engine.Tuple
}

// Side is one side of a Pair: the join key and the caller's payload, an
// engine.Tuple without the tag (Pair carries it as RSeq/SSeq, once).
type Side struct {
	Key     int
	Payload interface{}
}

// Pair is one join result with its global provenance: the ingress sequence
// numbers of both sides (RSeq/SSeq), the shard that produced it, and the
// caller's original keys and payloads. It is 80 bytes; IngestBatch and Flush
// write a reply out as Pairs, the daemon reads it as a Reply.
type Pair struct {
	// RSeq and SSeq are the global ingress sequence numbers of the two
	// sides: every arrival is numbered 2·step (R) and 2·step+1 (S) at
	// ingress, before routing, so pairs from different shards are globally
	// comparable. The merge orders results by (max, min) of the two — the
	// triggering arrival first, ties broken by the cached partner — which
	// is unique per pair and pinned by TestMergeOrder. Only the trigger is
	// ever compared: a shard emits one trigger's pairs partner-ascending.
	RSeq, SSeq uint64
	// R and S carry the join keys and the caller's payloads.
	R, S Side
	// SameStep marks the pair of one global step's two arrivals
	// (engine.Pair.SameTime): RSeq/2 == SSeq/2.
	SameStep bool
	// Shard is the shard that produced the pair.
	Shard int
}

// Reply is a dispatch's answer in numbered form — each tuple once, the pairs
// as 12-byte records of tuple numbers — valid until the runtime's next
// dispatch. Pair i is pair i of the []Pair IngestBatch would return.
type Reply struct {
	refs   []ref
	tuples []engine.Tuple
}

type ref struct {
	r, s     uint32
	shard    uint16
	sameStep bool
}

// Len is the number of pairs.
func (r *Reply) Len() int { return len(r.refs) }

// Pair returns pair i: its tuples' numbers, shard and Pair.SameStep.
func (r *Reply) Pair(i int) (rn, sn uint32, shard uint16, sameStep bool) {
	p := r.refs[i]
	return p.r, p.s, p.shard, p.sameStep
}

// Tuples is the number of tuples the pairs name.
func (r *Reply) Tuples() int { return len(r.tuples) }

// Tuple returns tuple k; its Seq is its global ingress sequence number.
func (r *Reply) Tuple(k uint32) engine.Tuple { return r.tuples[k] }

// Config configures the sharded runtime.
type Config struct {
	// Shards is the number of partitions (>= 1).
	Shards int
	// TotalCache is the cache budget summed over all shards; it is split
	// evenly (remainder to the lowest shard IDs), and a shard keeps its
	// share for the runtime's life.
	TotalCache int
	// Window > 0 enables sliding-window semantics per shard. A shard's clock
	// is the stream's, so the window counts global steps.
	Window int
	// Procs carries the stream models for model-driven policies.
	//lint:ignore fingerprintcover each shard engine's nested checkpoint fingerprints the process pair (ProcSig); the manifest does not repeat it
	Procs [2]process.Process
	// NewPolicy builds shard i's replacement policy; nil uses the engine
	// default (HEEB with the models, RAND otherwise). Each shard needs its
	// own instance — policies are stateful — which is why this is a factory
	// and not a value.
	//lint:ignore fingerprintcover policy identity is fingerprinted by name (PolicyName) inside each shard's engine envelope; the factory is construction wiring
	NewPolicy func(shard int) join.Policy
	// Seed drives per-shard policy randomness; each shard derives its own
	// seed from it.
	Seed uint64
	// Telemetry, when true, attaches a registry to every shard engine plus
	// a runtime registry for the coordinator's own counters; Registry and
	// Handler expose them, aggregated across shards.
	//lint:ignore fingerprintcover observability toggle; counters and gauges never feed a decision, so replay is unaffected
	Telemetry bool
	// Flight, when true, attaches a flight recorder to every shard engine.
	//lint:ignore fingerprintcover observability toggle; the recorder observes decisions, it never makes them
	Flight bool
	// FlightDir, when non-empty, implies Flight and gives every shard a
	// bundle directory FlightDir/shard-<i> so faults dump per-shard
	// diagnostics bundles.
	//lint:ignore fingerprintcover diagnostics output path; where bundles land cannot affect replay
	FlightDir string
	// FlightSampleEvery is the per-shard lifecycle sampling rate (0 keeps
	// the recorder default).
	//lint:ignore fingerprintcover observability sampling rate; which steps get lifecycle records cannot affect replay
	FlightSampleEvery int
}

// ErrClosed is returned by operations on a runtime after Close.
var ErrClosed = errors.New("shardrt: runtime is closed")

// ErrBadStep wraps ingress validation failures: out-of-domain join keys are
// rejected before any state is touched, mirroring engine.StepChecked.
var ErrBadStep = errors.New("shardrt: bad step")

func (cfg *Config) validate() error {
	if cfg.Shards < 1 || cfg.Shards > math.MaxUint16+1 {
		return fmt.Errorf("shardrt: Shards must be in [1, %d], got %d", math.MaxUint16+1, cfg.Shards)
	}
	if cfg.TotalCache < cfg.Shards {
		return fmt.Errorf("shardrt: TotalCache %d cannot give %d shards a slot each", cfg.TotalCache, cfg.Shards)
	}
	if cfg.Window < 0 {
		return fmt.Errorf("shardrt: Window must be >= 0, got %d", cfg.Window)
	}
	return nil
}

// shard is one partition: its engine, observability handles, and the steps
// routed to it. The coordinator owns batch and out between dispatches; within
// one, the goroutine that claimed the shard does.
type shard struct {
	id     int
	eng    *engine.Join
	reg    *telemetry.Registry
	rec    *flightrec.Recorder
	budget int

	// clock is the global step the engine is at: the next step routed here
	// skips the steps from clock to its own.
	clock int
	// batch is the steps routed here for the next dispatch; out is its run.
	batch []engine.TuplePair
	out   run
	// keys is the room for the merge keys of a batch of up to len(keys) pairs
	// — most batches of the low-fanout workloads; a larger batch's keys are
	// that batch's garbage. Pointer-free, so it pins nothing.
	keys [32]runKey
}

// run is one shard's answer to a batch, on its way into the merge: the
// engine's own numbered batch (valid until that shard steps again — the merge
// of the same dispatch is done with it by then), the keys that put its pairs
// in merge order, and where the merge lists its tuples in the reply.
type run struct {
	keys  []runKey
	batch engine.Batch
	base  uint32
	shard int
	err   error
}

// Runtime is the sharded operator. It is driven from one goroutine
// (IngestBatch/Flush/Close and every accessor), which steps shards itself
// during a dispatch, beside the helpers New started. Accessors that touch
// shard engines are safe between calls: every dispatch waits for its helpers.
type Runtime struct {
	cfg    Config
	shards []*shard
	// ingested counts global steps accepted; the next arrival's sequence
	// numbers are 2·ingested (R) and 2·ingested+1 (S). batches counts
	// dispatches.
	ingested int
	batches  int
	merged   int
	// reply is the last dispatch's answer; out is the same written out as
	// Pairs, by IngestBatch and Flush only.
	//lint:ignore snapcomplete merge buffers handed to the caller each batch; Checkpoint runs between IngestBatch calls, when they are dead
	reply Reply
	//lint:ignore snapcomplete merge buffer handed to the caller each batch; Checkpoint runs between IngestBatch calls, when it is dead
	out []Pair
	// runs is room for one run per shard (length 0, capacity Shards): a
	// dispatch gathers the shards' outputs into it and mergeRuns clears them,
	// so no shard's batch output outlives its dispatch and a Checkpoint (taken
	// between IngestBatch calls) finds it empty.
	runs []run

	// next counts the shards a dispatch has claimed: the coordinator and
	// every helper it woke take the next one with a batch until none is
	// left. wake, whose capacity is the number of helpers, carries one token
	// per helper a dispatch wants; helping counts the woken helpers that are
	// not done.
	next    atomic.Int64 //lint:ignore snapcomplete dispatch scratch, dead between calls
	wake    chan struct{}
	helping sync.WaitGroup //lint:ignore snapcomplete dispatch scratch: zero between calls, every woken helper done

	closed bool
	// fault is the first shard step fault. The other shards stepped that
	// batch, so nothing can be retried or resumed: every later IngestBatch,
	// Flush, Checkpoint and Restore returns it.
	fault error

	reg *telemetry.Registry // coordinator registry (nil without telemetry)
}

// New validates the configuration and builds the runtime: engines, per-shard
// observability, and min(GOMAXPROCS, Shards) − 1 helper goroutines.
func New(cfg Config) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.FlightDir != "" {
		cfg.Flight = true
	}
	rt := &Runtime{cfg: cfg, runs: make([]run, 0, cfg.Shards)}
	if cfg.Telemetry {
		rt.reg = telemetry.NewRegistry()
		rt.reg.GaugeFunc("shardrt_shards", func() float64 { return float64(cfg.Shards) })
	}
	base := cfg.TotalCache / cfg.Shards
	rem := cfg.TotalCache % cfg.Shards
	for i := 0; i < cfg.Shards; i++ {
		budget := base
		if i < rem {
			budget++
		}
		sh := &shard{id: i, budget: budget}
		ecfg := engine.Config{
			CacheSize: budget,
			Window:    cfg.Window,
			Procs:     cfg.Procs,
			Seed:      shardSeed(cfg.Seed, i),
		}
		if cfg.NewPolicy != nil {
			ecfg.Policy = cfg.NewPolicy(i)
		}
		if cfg.Telemetry {
			sh.reg = telemetry.NewRegistry()
			sh.reg.Gauge("shardrt_cache_budget").Set(float64(budget))
			ecfg.Telemetry = sh.reg
		}
		if cfg.Flight {
			opts := flightrec.Options{
				SampleSeed:  shardSeed(cfg.Seed, i),
				SampleEvery: cfg.FlightSampleEvery,
			}
			if cfg.FlightDir != "" {
				opts.BundleDir = fmt.Sprintf("%s/shard-%d", cfg.FlightDir, i)
			}
			sh.rec = flightrec.New(opts)
			ecfg.Flight = sh.rec
		}
		eng, err := engine.NewJoin(ecfg)
		if err != nil {
			return nil, fmt.Errorf("shardrt: shard %d: %w", i, err)
		}
		sh.eng = eng
		rt.shards = append(rt.shards, sh)
	}
	rt.wake = make(chan struct{}, min(runtime.GOMAXPROCS(0), cfg.Shards)-1)
	for range cap(rt.wake) {
		go rt.help()
	}
	return rt, nil
}

// shardSeed derives shard i's seed from the base seed with a splitmix-style
// increment, so shards never share a policy RNG stream.
func shardSeed(seed uint64, i int) uint64 {
	return seed + uint64(i+1)*0x9E3779B97F4A7C15
}

// help is a helper goroutine: woken by a dispatch, it claims shards beside the
// coordinator until none is left, then waits for the next dispatch.
func (rt *Runtime) help() {
	for range rt.wake {
		rt.claim()
		rt.helping.Done()
	}
}

// claim steps the dispatch's unclaimed shards one at a time until none is
// left: the one path the coordinator and the helpers step shards on.
func (rt *Runtime) claim() {
	for i := rt.next.Add(1) - 1; i < int64(len(rt.shards)); i = rt.next.Add(1) - 1 {
		if sh := rt.shards[i]; len(sh.batch) > 0 {
			sh.step()
		}
	}
}

// step runs the shard's batch and leaves the engine's output, with the keys
// that order it, in out. A policy panic is captured and surfaced as the
// batch's error instead of unwinding the goroutine that claimed the shard.
func (sh *shard) step() {
	defer func() {
		if r := recover(); r != nil {
			sh.out = run{err: fmt.Errorf("shardrt: shard %d: step panic: %v", sh.id, r)}
		}
	}()
	b := sh.eng.StepRun(sh.batch)
	//lint:ignore stepretain the run goes to the coordinator, whose merge is done with it inside the dispatch that stepped this batch: the shard cannot step again before that
	sh.out = run{keys: sortKeys(sh.keys[:0], b), batch: b, shard: sh.id}
}

// runKey is one engine pair's trigger — the later of its two arrivals — and
// its index in the engine's output. It holds no pointers: ordering a batch
// moves 16-byte records the collector never looks at.
type runKey struct {
	trigSeq uint64
	idx     int
}

// sortKeys orders one StepRun output for the merge, on the goroutine that
// stepped the shard, without moving a pair; a pair's trigger is read through
// its tuples' numbers. Merge order is (trigger, partner), and it is a stable
// order on the trigger alone: the engine emits a step's matches in cache
// (arrival) order, so one trigger's pairs leave it partner-ascending
// (TestTriggerRunsLeaveTheEngineInPartnerOrder). A shard steps its arrivals
// in global order, so the triggers out of order are the two arrivals of one
// two-sided step, whose matches the engine interleaves by partner: inserting
// each key moves it past keys of its own step only. Keys that fit room are
// ordered there; a longer run is one allocation.
func sortKeys(room []runKey, b engine.Batch) []runKey {
	keys := room[:0]
	if n := len(b.Pairs); n > cap(room) {
		keys = make([]runKey, 0, n)
	}
	for i, p := range b.Pairs {
		k := runKey{trigSeq: max(b.Tuples[p.R].Seq, b.Tuples[p.S].Seq), idx: i}
		j := len(keys)
		keys = append(keys, k)
		for ; j > 0 && keys[j-1].trigSeq > k.trigSeq; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
	return keys
}

// IngestBatch feeds a batch of global steps and returns every pair they
// produced. All keys are validated up front — a bad step rejects the whole
// batch before any state changes (ErrBadStep: the caller may retry; any other
// error is a shard fault and final). Arrivals whose key is process.NoValue are
// dropped at ingress (they can never join); the rest go to their shards at
// their global step (see the package comment), and each shard steps all of
// its arrivals before IngestBatch returns.
//
// The returned slice is owned by the runtime and valid until the next
// IngestBatch/Flush/Close call; callers that retain pairs must copy them.
func (rt *Runtime) IngestBatch(steps []Step) ([]Pair, error) {
	return rt.pairs(rt.IngestReply(steps))
}

// IngestReply is IngestBatch with the reply as a Reply, which names each
// tuple once, instead of written out as Pairs.
func (rt *Runtime) IngestReply(steps []Step) (*Reply, error) {
	if err := rt.refused(); err != nil {
		return nil, err
	}
	for i, st := range steps {
		if err := checkKey(st.R.Key); err != nil {
			return nil, fmt.Errorf("%w: step %d stream R: %v", ErrBadStep, i, err)
		}
		if err := checkKey(st.S.Key); err != nil {
			return nil, fmt.Errorf("%w: step %d stream S: %v", ErrBadStep, i, err)
		}
	}
	for i := range steps {
		rt.route(&steps[i], rt.ingested+i)
	}
	rt.ingested += len(steps)
	return rt.dispatch()
}

// route hands global step g's arrivals, numbered 2g (R) and 2g+1 (S), to
// their shards: one two-sided step when both keys route to one shard, a
// one-sided step for each otherwise, none for a NoValue arrival.
func (rt *Runtime) route(st *Step, g int) {
	rk, sk := st.R.Key, st.S.Key
	a, b := -1, -1
	if rk != process.NoValue {
		a = ShardOf(rk, len(rt.shards))
	}
	if sk != process.NoValue {
		b = ShardOf(sk, len(rt.shards))
	}
	r := engine.Tuple{Key: rk, Payload: st.R.Payload, Seq: 2 * uint64(g)}
	s := engine.Tuple{Key: sk, Payload: st.S.Payload, Seq: 2*uint64(g) + 1}
	if a >= 0 && a == b {
		tp := rt.shards[a].at(g)
		tp.R, tp.S = r, s
		return
	}
	if a >= 0 {
		tp := rt.shards[a].at(g)
		tp.R, tp.S.Key, tp.Arrivals = r, sk, engine.OnlyR
	}
	if b >= 0 {
		tp := rt.shards[b].at(g)
		tp.R.Key, tp.S, tp.Arrivals = rk, s, engine.OnlyS
	}
}

// at appends the shard's step at global step g, stamped with the steps it
// skips, and returns it to be filled in. The batch buffer is zero beyond its
// length (dispatch clears what it stepped), so the step starts out zero.
func (sh *shard) at(g int) *engine.TuplePair {
	sh.batch = slices.Grow(sh.batch, 1)[:len(sh.batch)+1]
	tp := &sh.batch[len(sh.batch)-1]
	tp.Skip = g - sh.clock
	sh.clock = g + 1
	return tp
}

// Flush steps what is routed and not stepped, and returns its pairs. Every
// dispatch steps all it routes, so that is nothing — the reply is empty —
// except after a Restore from a version-2 or -3 manifest, whose carried
// tails the next dispatch steps. Nothing is padded.
func (rt *Runtime) Flush() ([]Pair, error) {
	return rt.pairs(rt.FlushReply())
}

// FlushReply is Flush with the reply as a Reply.
func (rt *Runtime) FlushReply() (*Reply, error) {
	if err := rt.refused(); err != nil {
		return nil, err
	}
	return rt.dispatch()
}

// pairs writes a reply out as Pairs, over the buffer the previous one was
// written to, and zeroes what that one held beyond the new length.
func (rt *Runtime) pairs(rep *Reply, err error) ([]Pair, error) {
	if err != nil {
		return nil, err
	}
	out := rt.out[:0]
	for _, p := range rep.refs {
		r, s := &rep.tuples[p.r], &rep.tuples[p.s]
		out = append(out, Pair{RSeq: r.Seq, SSeq: s.Seq, R: Side{r.Key, r.Payload}, S: Side{s.Key, s.Payload}, SameStep: p.sameStep, Shard: int(p.shard)})
	}
	if len(out) < len(rt.out) {
		clear(out[len(out):len(rt.out)])
	}
	rt.out = out
	return out, nil
}

// refused is why the runtime takes no more work: it is closed, or a shard
// faulted.
func (rt *Runtime) refused() error {
	if rt.closed {
		return ErrClosed
	}
	return rt.fault
}

// checkKey mirrors engine.StepChecked's domain check at the ingress
// boundary.
func checkKey(k int) error {
	if k != process.NoValue && (k < engine.MinKey || k > engine.MaxKey) {
		return fmt.Errorf("key %d outside [%d, %d]", k, engine.MinKey, engine.MaxKey)
	}
	return nil
}

// dispatch steps every shard with a batch — the coordinator claiming shards
// beside as many helpers as there are other such shards — gathers their runs
// and merges them into the global emission order.
func (rt *Runtime) dispatch() (*Reply, error) {
	busy := 0
	for _, sh := range rt.shards {
		if len(sh.batch) > 0 {
			busy++
		}
	}
	rt.next.Store(0)
	h := max(0, min(cap(rt.wake), busy-1))
	rt.helping.Add(h)
	for range h {
		rt.wake <- struct{}{}
	}
	rt.claim()
	rt.helping.Wait()
	runs := rt.runs[:0]
	var firstErr error
	for _, sh := range rt.shards {
		if len(sh.batch) == 0 {
			continue
		}
		sh.batch = slices.Delete(sh.batch, 0, len(sh.batch)) // zeroed: an idle shard must not pin its last batch's payloads
		if sh.out.err != nil && firstErr == nil {
			firstErr = sh.out.err
		}
		runs = append(runs, sh.out)
		sh.out = run{}
	}
	// Merged before the error check so the runs are released either way, and
	// the tuples the previous reply listed beyond this one's with them.
	prev := rt.reply.tuples
	rt.reply = mergeRuns(Reply{refs: rt.reply.refs[:0], tuples: prev[:0]}, runs)
	if n := len(rt.reply.tuples); n < len(prev) {
		clear(prev[n:])
	}
	if firstErr != nil {
		rt.fault = firstErr
		return nil, firstErr
	}
	rt.merged += rt.reply.Len()
	rt.batches++
	return &rt.reply, nil
}

// Close steps what Flush would, stops the helpers and marks the runtime
// closed. The returned pairs are Flush's; a faulted runtime stops without
// stepping and returns the fault. Close is idempotent; later calls return
// ErrClosed.
func (rt *Runtime) Close() ([]Pair, error) {
	if rt.closed {
		return nil, ErrClosed
	}
	out, err := rt.Flush()
	rt.closed = true
	close(rt.wake)
	return out, err
}

// Shutdown stops the helpers and marks the runtime closed WITHOUT the
// dispatch Close performs: the shard engines keep their exact state. It is
// the checkpoint-then-exit path. Idempotent.
func (rt *Runtime) Shutdown() {
	if rt.closed {
		return
	}
	rt.closed = true
	close(rt.wake)
}

// Metrics is a snapshot of the runtime's counters plus every shard engine's
// metrics.
type Metrics struct {
	// Ingested counts accepted global steps; Batches the dispatches;
	// Pairs the merged result pairs returned to the caller.
	Ingested int
	Batches  int
	Pairs    int
	Shards   []ShardMetrics
}

// ShardMetrics is one shard's view: its budget and its engine counters
// (engine.Metrics semantics: Steps counts the steps the shard took).
type ShardMetrics struct {
	Shard  int
	Budget int
	Engine engine.Metrics
}

// Metrics snapshots the runtime. Safe between IngestBatch calls (workers
// are quiescent then).
func (rt *Runtime) Metrics() Metrics {
	m := Metrics{
		Ingested: rt.ingested,
		Batches:  rt.batches,
		Pairs:    rt.merged,
	}
	for _, sh := range rt.shards {
		m.Shards = append(m.Shards, ShardMetrics{Shard: sh.id, Budget: sh.budget, Engine: sh.eng.Metrics()})
	}
	return m
}

// CheckInvariants runs engine.CheckInvariants on every shard. Safe between
// IngestBatch calls.
func (rt *Runtime) CheckInvariants() error {
	for _, sh := range rt.shards {
		if err := sh.eng.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", sh.id, err)
		}
	}
	return nil
}

// Registry returns shard i's telemetry registry (nil without telemetry).
func (rt *Runtime) Registry(i int) *telemetry.Registry { return rt.shards[i].reg }

// Recorder returns shard i's flight recorder (nil without Flight).
func (rt *Runtime) Recorder(i int) *flightrec.Recorder { return rt.shards[i].rec }

// Shard returns shard i's engine for tests and tooling. The engine is only
// quiescent between IngestBatch/Flush calls; do not touch it concurrently
// with one.
func (rt *Runtime) Shard(i int) *engine.Join { return rt.shards[i].eng }

// mergeRuns appends the N-way merge of the shards' keyed runs to out and
// leaves runs cleared; a run's tuples are listed after out's, its numbers
// moved by where they start. The order is trigger order, deterministic
// regardless of which shard answered first: an arrival's pairs all come from
// its key's shard, so run heads never tie across runs and the merged order is
// made of same-shard stretches. Each round finds the run with the lowest head
// and takes its whole prefix below the runner-up's head (past every key, for
// the last run standing) at once — one comparison a pair, plus one scan of the
// heads a stretch.
func mergeRuns(out Reply, runs []run) Reply {
	total := 0
	live := runs[:0]
	for _, r := range runs {
		if len(r.keys) > 0 {
			r.base = uint32(len(out.tuples))
			// A tuple at a time: a bulk copy of pointerful records takes the
			// collector's bulk barrier while marking is on.
			for _, tu := range r.batch.Tuples {
				out.tuples = append(out.tuples, tu)
			}
			live = append(live, r)
			total += len(r.keys)
		}
	}
	refs := slices.Grow(out.refs, total)
	for len(live) > 0 {
		lo, bound := 0, uint64(math.MaxUint64)
		for i := 1; i < len(live); i++ {
			switch head := live[i].keys[0].trigSeq; {
			case head < live[lo].keys[0].trigSeq:
				lo, bound = i, live[lo].keys[0].trigSeq
			case head < bound:
				bound = head
			}
		}
		r := &live[lo]
		n := 1
		for n < len(r.keys) && r.keys[n].trigSeq < bound {
			n++
		}
		for _, k := range r.keys[:n] {
			p := r.batch.Pairs[k.idx]
			refs = append(refs, ref{r: r.base + p.R, s: r.base + p.S, shard: uint16(r.shard), sameStep: p.SameTime})
		}
		if r.keys = r.keys[n:]; len(r.keys) == 0 {
			live[lo] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	clear(runs)
	out.refs = refs
	return out
}
