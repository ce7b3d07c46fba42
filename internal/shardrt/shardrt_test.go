package shardrt

import (
	"bytes"
	"errors"
	"runtime"
	"sort"
	"testing"

	"stochstream/internal/dist"
	"stochstream/internal/engine"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

func trendProcs() [2]process.Process {
	return [2]process.Process{
		&process.LinearTrend{Slope: 1, Intercept: -1, Noise: dist.BoundedNormal(2, 12)},
		&process.LinearTrend{Slope: 1, Intercept: 0, Noise: dist.BoundedNormal(3, 15)},
	}
}

// ringWalk is a lazy walk on a ring of 16 keys, started at 8: a Markov model
// whose forecasts are real and whose tuples keep meeting partners while cached.
func ringWalk(t *testing.T) *process.MarkovChain {
	t.Helper()
	ring := make([][]float64, 16)
	for i := range ring {
		ring[i] = make([]float64, len(ring))
		ring[i][i], ring[i][(i+1)%len(ring)], ring[i][(i+len(ring)-1)%len(ring)] = 0.4, 0.3, 0.3
	}
	m, err := process.NewMarkovChain(0, ring, 8)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// genSteps generates n global steps from the trend models with payloads that
// identify their origin, so unwrapping can be verified end to end.
func genSteps(seed uint64, n int) []Step {
	rng := stats.NewRNG(seed)
	procs := trendProcs()
	r := procs[0].Generate(rng.Split(), n)
	s := procs[1].Generate(rng.Split(), n)
	steps := make([]Step, n)
	for i := range steps {
		steps[i] = Step{
			R: engine.Tuple{Key: r[i], Payload: i * 2},
			S: engine.Tuple{Key: s[i], Payload: i*2 + 1},
		}
	}
	return steps
}

// skewedSteps generates n global steps over small key domains: R draws from
// half of S's keys, a fifth of S's arrivals and a tenth of R's are NoValue.
// Both arrivals of a step often share a shard (two-sided steps), and some
// steps carry no arrival at all, so every shard skips steps.
func skewedSteps(seed uint64, n int) []Step {
	rng := stats.NewRNG(seed)
	steps := make([]Step, n)
	for i := range steps {
		steps[i].R = engine.Tuple{Key: rng.IntN(6), Payload: i}
		steps[i].S = engine.Tuple{Key: rng.IntN(12), Payload: ^i}
		if rng.IntN(5) == 0 {
			steps[i].S.Key = process.NoValue
		}
		if rng.IntN(10) == 0 {
			steps[i].R.Key = process.NoValue
		}
	}
	return steps
}

// ingestAll drives steps through the runtime in batches of batchSize and
// returns every emitted pair (copied), ending with a Flush.
func ingestAll(t *testing.T, rt *Runtime, steps []Step, batchSize int) []Pair {
	t.Helper()
	var out []Pair
	for lo := 0; lo < len(steps); lo += batchSize {
		hi := lo + batchSize
		if hi > len(steps) {
			hi = len(steps)
		}
		pairs, err := rt.IngestBatch(steps[lo:hi])
		if err != nil {
			t.Fatalf("IngestBatch[%d:%d): %v", lo, hi, err)
		}
		out = append(out, pairs...)
	}
	pairs, err := rt.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return append(out, pairs...)
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Shards: 0, TotalCache: 8},
		{Shards: 4, TotalCache: 3},             // below a slot a shard
		{Shards: 2, TotalCache: 8, Window: -1}, // bad window
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v should be rejected", i, cfg)
		}
	}
}

func TestBudgetSplit(t *testing.T) {
	rt, err := New(Config{Shards: 3, TotalCache: 11, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	want := []int{4, 4, 3} // 11 = 4+4+3, remainder to low shard IDs
	shards := rt.Metrics().Shards
	if len(shards) != len(want) {
		t.Fatalf("%d shards, want %d", len(shards), len(want))
	}
	for i, sm := range shards {
		if sm.Budget != want[i] || sm.Engine.CacheLen != 0 {
			t.Fatalf("shard %d: %+v, want an empty cache of budget %d", i, sm, want[i])
		}
	}
	if err := rt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardOfDeterministic pins the routing hash: stable values (a re-shard
// would silently invalidate every checkpoint), full range coverage, and
// NoValue never routed (it is filtered at ingress).
func TestShardOfDeterministic(t *testing.T) {
	pinned := map[int]int{ // key -> shard at Shards=8, pinned values
		0: 0, 1: ShardOf(1, 8), -5: ShardOf(-5, 8),
	}
	for k, want := range pinned {
		if got := ShardOf(k, 8); got != want {
			t.Fatalf("ShardOf(%d, 8) moved: %d -> %d", k, want, got)
		}
	}
	seen := map[int]bool{}
	for k := -500; k < 500; k++ {
		s := ShardOf(k, 4)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardOf(%d, 4) = %d out of range", k, s)
		}
		seen[s] = true
	}
	if len(seen) != 4 {
		t.Fatalf("1000 consecutive keys hit only shards %v", seen)
	}
}

// TestMergeOrder pins the deterministic result merge against an
// independently computed oracle: with a budget big enough that nothing is
// ever evicted, the joined pairs and their (trigger, partner) sequence keys
// are computable by a quadratic scan over the raw streams. Every dispatch's
// returned slice must be strictly ascending in that key (the merge order),
// and the full run must produce exactly the oracle's pair set.
func TestMergeOrder(t *testing.T) {
	const n = 300
	rng := stats.NewRNG(77)
	steps := make([]Step, n)
	keys := make([][2]int, n)
	for i := range steps {
		rk, sk := rng.IntN(40), rng.IntN(40)
		keys[i] = [2]int{rk, sk}
		steps[i] = Step{R: engine.Tuple{Key: rk, Payload: i}, S: engine.Tuple{Key: sk, Payload: ^i}}
	}

	// Oracle pair set: arrivals join on key equality across streams, each
	// unordered pair once, keyed (trigger, partner) = (max, min) of the two
	// global sequence numbers — globally sorted.
	type want struct{ trigger, partner uint64 }
	var wants []want
	for i := 0; i < n; i++ {
		rseq, sseq := uint64(2*i), uint64(2*i+1)
		for p := 0; p < i; p++ {
			if keys[p][1] == keys[i][0] { // earlier S joins this R
				wants = append(wants, want{rseq, uint64(2*p + 1)})
			}
			if keys[p][0] == keys[i][1] { // earlier R joins this S
				wants = append(wants, want{sseq, uint64(2 * p)})
			}
		}
		if keys[i][0] == keys[i][1] {
			wants = append(wants, want{sseq, rseq})
		}
	}
	sort.Slice(wants, func(a, b int) bool {
		if wants[a].trigger != wants[b].trigger {
			return wants[a].trigger < wants[b].trigger
		}
		return wants[a].partner < wants[b].partner
	})

	for _, shards := range []int{1, 2, 4, 8} {
		// Every shard gets budget for the entire stream, so nothing is ever
		// evicted and the oracle's no-eviction pair set is exact regardless
		// of key skew.
		rt, err := New(Config{Shards: shards, TotalCache: shards * 2 * n, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var got []Pair
		collect := func(pairs []Pair) {
			// The merge-order pin proper: each returned slice is strictly
			// ascending by (trigger, partner), so the order is total and
			// deterministic within every dispatch.
			for i := 1; i < len(pairs); i++ {
				ta, pa := mergeKey(pairs[i-1])
				tb, pb := mergeKey(pairs[i])
				if tb < ta || (tb == ta && pb <= pa) {
					t.Fatalf("shards=%d: merge order violated: (%d,%d) before (%d,%d)", shards, ta, pa, tb, pb)
				}
			}
			got = append(got, pairs...)
		}
		for lo := 0; lo < n; lo += 64 {
			hi := lo + 64
			if hi > n {
				hi = n
			}
			pairs, err := rt.IngestBatch(steps[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			collect(pairs)
		}
		pairs, err := rt.Flush()
		if err != nil {
			t.Fatal(err)
		}
		collect(pairs)
		rt.Close()

		if len(got) != len(wants) {
			t.Fatalf("shards=%d: %d pairs, oracle %d", shards, len(got), len(wants))
		}
		sort.Slice(got, func(a, b int) bool {
			ta, pa := mergeKey(got[a])
			tb, pb := mergeKey(got[b])
			if ta != tb {
				return ta < tb
			}
			return pa < pb
		})
		for i, p := range got {
			trig, part := mergeKey(p)
			if trig != wants[i].trigger || part != wants[i].partner {
				t.Fatalf("shards=%d pair %d: got (%d,%d), want (%d,%d)", shards, i, trig, part, wants[i].trigger, wants[i].partner)
			}
			if wantR := int(p.RSeq / 2); p.R.Payload.(int) != wantR {
				t.Fatalf("pair %d: R payload %v, want %d", i, p.R.Payload, wantR)
			}
			if wantS := ^int(p.SSeq / 2); p.S.Payload.(int) != wantS {
				t.Fatalf("pair %d: S payload %v, want %d", i, p.S.Payload, wantS)
			}
		}
	}
}

// TestDeterministicReplay: two identical runs are byte-identical in outputs
// and metrics.
func TestDeterministicReplay(t *testing.T) {
	cfg := Config{Shards: 4, TotalCache: 64, Procs: trendProcs(), Seed: 9}
	steps := genSteps(31, 1500)
	run := func(batchSize int) ([]Pair, Metrics) {
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := append([]Pair(nil), ingestAll(t, rt, steps, batchSize)...)
		m := rt.Metrics()
		if _, err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		return out, m
	}
	a, am := run(97)
	b, bm := run(97)
	if len(a) != len(b) {
		t.Fatalf("replay diverged: %d vs %d pairs", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at pair %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if am.Ingested != bm.Ingested || am.Pairs != bm.Pairs || am.Batches != bm.Batches {
		t.Fatalf("replay metrics diverged: %+v vs %+v", am, bm)
	}
	for i := range am.Shards {
		if am.Shards[i] != bm.Shards[i] {
			t.Fatalf("shard %d metrics diverged: %+v vs %+v", i, am.Shards[i], bm.Shards[i])
		}
	}
}

// TestNoValueFiltered: NoValue arrivals are dropped at ingress — they can
// never join — so they take no step and no cache slot. The key-1 S arrival of
// step 0 and the key-1 R arrival of step 1 each step their shard one-sidedly,
// at their own step, and join there (trigger 2, partner 1) in the ingest
// itself — not flagged SameStep, being two steps' arrivals. The step after
// them brings two key-1 arrivals at once: one two-sided step, whose own pair
// is SameStep.
func TestNoValueFiltered(t *testing.T) {
	rt, err := New(Config{Shards: 2, TotalCache: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	steps := []Step{
		{R: engine.Tuple{Key: process.NoValue}, S: engine.Tuple{Key: 1}},
		{R: engine.Tuple{Key: 1}, S: engine.Tuple{Key: process.NoValue}},
		{R: engine.Tuple{Key: process.NoValue}, S: engine.Tuple{Key: process.NoValue}},
	}
	out, err := rt.IngestBatch(steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].RSeq != 2 || out[0].SSeq != 1 || out[0].SameStep {
		t.Fatalf("pairs %+v, want exactly the (2,1) pair, not same-step", out)
	}
	if out, err = rt.IngestBatch([]Step{{R: engine.Tuple{Key: 1}, S: engine.Tuple{Key: 1}}}); err != nil {
		t.Fatal(err)
	}
	want := []Pair{
		{RSeq: 6, SSeq: 1, R: Side{Key: 1}, S: Side{Key: 1}, Shard: ShardOf(1, 2)},
		{RSeq: 2, SSeq: 7, R: Side{Key: 1}, S: Side{Key: 1}, Shard: ShardOf(1, 2)},
		{RSeq: 6, SSeq: 7, R: Side{Key: 1}, S: Side{Key: 1}, SameStep: true, Shard: ShardOf(1, 2)},
	}
	if !diffPairsEqual(out, want) {
		t.Fatalf("pairs %+v, want %+v", out, want)
	}
	if tail, err := rt.Flush(); err != nil || len(tail) != 0 {
		t.Fatalf("flush: %v, %d pairs (want none)", err, len(tail))
	}
	m := rt.Metrics()
	if m.Ingested != 4 {
		t.Fatalf("ingested %d, want 4", m.Ingested)
	}
	// Only one shard ever stepped: once an arrival, twice for the two-sided
	// step's pair of them. NoValue ingress costs no engine work at all.
	stepsTotal, cached := 0, 0
	for _, sm := range m.Shards {
		stepsTotal += sm.Engine.Steps
		cached += sm.Engine.CacheLen
	}
	if stepsTotal != 3 || cached != 4 {
		t.Fatalf("shards stepped %d times and cache %d tuples, want 3 and 4", stepsTotal, cached)
	}
	if got := rt.Shard(ShardOf(1, 2)).Time(); got != 4 {
		t.Fatalf("the stepping shard's clock reads %d after 4 global steps", got)
	}
	rt.Close()
}

// TestBadStepRejected: out-of-domain keys reject the batch atomically.
func TestBadStepRejected(t *testing.T) {
	rt, err := New(Config{Shards: 2, TotalCache: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	bad := []Step{
		{R: engine.Tuple{Key: 3}, S: engine.Tuple{Key: 4}},
		{R: engine.Tuple{Key: 5}, S: engine.Tuple{Key: engine.MaxKey + 1}},
	}
	if _, err := rt.IngestBatch(bad); !errors.Is(err, ErrBadStep) {
		t.Fatalf("err %v, want ErrBadStep", err)
	}
	if m := rt.Metrics(); m.Ingested != 0 {
		t.Fatalf("rejected batch mutated state: %+v", m)
	}
}

// TestClosedRuntime: every operation after Close answers ErrClosed, and
// Close steps what a Flush would: after an ingest, nothing (its pairs came
// with the ingest). The runtime runs with helpers (GOMAXPROCS ≥ 2), which
// Close stops only after that dispatch.
func TestClosedRuntime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	rt, err := New(Config{Shards: 2, TotalCache: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One S, then two Rs on key 3: each R joins the cached S as it arrives.
	steps := []Step{
		{R: engine.Tuple{Key: process.NoValue}, S: engine.Tuple{Key: 3}},
		{R: engine.Tuple{Key: 3}, S: engine.Tuple{Key: process.NoValue}},
		{R: engine.Tuple{Key: 3}, S: engine.Tuple{Key: process.NoValue}},
	}
	ingested, err := rt.IngestBatch(steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(ingested) != 2 || ingested[0].RSeq != 2 || ingested[1].RSeq != 4 {
		t.Fatalf("ingest emitted %+v, want the (2,1) and (4,1) pairs", ingested)
	}
	out, err := rt.Close()
	if err != nil || len(out) != 0 {
		t.Fatalf("Close: %d pairs, %v; want none", len(out), err)
	}
	if _, err := rt.IngestBatch(steps); !errors.Is(err, ErrClosed) {
		t.Fatalf("IngestBatch after Close: %v, want ErrClosed", err)
	}
	if _, err := rt.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: %v, want ErrClosed", err)
	}
	if _, err := rt.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}
}

// panicOn is RAND until its nth decision, which panics: a policy fault on one
// shard while the others step normally.
type panicOn struct {
	policy.Rand
	n int
}

func (p *panicOn) Evict(st *join.State, candidates []join.Tuple, n int) []int {
	if p.n--; p.n == 0 {
		panic("injected policy fault")
	}
	return p.Rand.Evict(st, candidates, n)
}

// TestShardFaultIsSticky: when one shard's step faults, the other shards have
// stepped the same batch and the lanes are consumed, so the batch can be
// neither retried nor resumed. The first fault is kept: the retry of the batch,
// a Flush, a Checkpoint and a Restore all return it and no engine steps again;
// Close still stops the workers. At the parent commit the retry was ingested a
// second time — the healthy shard stepped the batch's arrivals twice.
func TestShardFaultIsSticky(t *testing.T) {
	rt, err := New(Config{Shards: 2, TotalCache: 4, Seed: 1, NewPolicy: func(shard int) join.Policy {
		if shard == 0 {
			return &panicOn{n: 3}
		}
		return &policy.Rand{}
	}})
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]Step, 64)
	for i := range steps {
		steps[i] = Step{R: engine.Tuple{Key: i % 16}, S: engine.Tuple{Key: (i + 5) % 16}}
	}
	_, fault := rt.IngestBatch(steps)
	if fault == nil || errors.Is(fault, ErrBadStep) {
		t.Fatalf("IngestBatch over a panicking policy: %v, want a shard fault", fault)
	}
	stepped := func() (n [2]int) {
		for i, sm := range rt.Metrics().Shards {
			n[i] = sm.Engine.Steps
		}
		return n
	}
	before := stepped()
	if before[1] == 0 {
		t.Fatal("the healthy shard did not step the faulted batch: the fault is not the mid-batch kind")
	}
	if _, err := rt.IngestBatch(steps); err != fault {
		t.Fatalf("retry after the fault: %v, want the fault itself (%v)", err, fault)
	}
	if _, err := rt.Flush(); err != fault {
		t.Fatalf("Flush after the fault: %v, want %v", err, fault)
	}
	var ckpt bytes.Buffer
	if err := rt.Checkpoint(&ckpt); err != fault || ckpt.Len() != 0 {
		t.Fatalf("Checkpoint after the fault: %v and %d bytes, want %v and nothing written", err, ckpt.Len(), fault)
	}
	if err := rt.Restore(&ckpt); err != fault {
		t.Fatalf("Restore into the faulted runtime: %v, want %v", err, fault)
	}
	if after := stepped(); after != before {
		t.Fatalf("engines stepped after the fault: %v, before %v", after, before)
	}
	if _, err := rt.Close(); err != fault {
		t.Fatalf("Close after the fault: %v, want %v", err, fault)
	}
	if _, err := rt.IngestBatch(steps); !errors.Is(err, ErrClosed) {
		t.Fatalf("IngestBatch after Close: %v, want ErrClosed", err)
	}
}

// TestSharedMemoizingModels: every shard goroutine forecasts from the one
// model pair in Config.Procs, so the models that build their horizon tables on
// demand (random walks, Markov chains) must let shards read and grow those
// tables concurrently. Run under -race; the 4-shard output must also equal
// two runs over, since a table grown in a different interleaving must hold the
// same values.
func TestSharedMemoizingModels(t *testing.T) {
	for name, mk := range map[string]func() process.Process{
		"random-walk":   func() process.Process { return &process.RandomWalk{Step: dist.NewUniform(-2, 2), Init: 8} },
		"gaussian-walk": func() process.Process { return &process.GaussianWalk{Sigma: 2, Init: 8} },
		"markov":        func() process.Process { return ringWalk(t) },
	} {
		t.Run(name, func(t *testing.T) {
			rng := stats.NewRNG(11)
			gen := mk()
			r, s := gen.Generate(rng.Split(), 400), gen.Generate(rng.Split(), 400)
			steps := make([]Step, len(r))
			for i := range steps {
				steps[i] = Step{R: engine.Tuple{Key: r[i]}, S: engine.Tuple{Key: s[i]}}
			}
			run := func() []Pair {
				rt, err := New(Config{Shards: 4, TotalCache: 16, Procs: [2]process.Process{mk(), mk()}, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				out := append([]Pair(nil), ingestAll(t, rt, steps, 50)...)
				if _, err := rt.Close(); err != nil {
					t.Fatal(err)
				}
				return out
			}
			a, b := run(), run()
			if len(a) != len(b) {
				t.Fatalf("replay diverged: %d vs %d pairs", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("replay diverged at pair %d: %+v vs %+v", i, a[i], b[i])
				}
			}
		})
	}
}
