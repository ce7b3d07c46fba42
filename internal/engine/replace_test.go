package engine

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"stochstream/internal/join"
	"stochstream/internal/stats"
)

// The replacement step's contract (join.Policy.Evict): the candidate slice is
// the operator's live cache — read-only, valid for the call, never retained.
// The tests below hold the engine's side of it: a wrong answer is refused
// before anything moves, a policy that writes through the slice is caught by
// CheckInvariants, a policy that appends to it reaches nothing, and RAND's
// new draws stay a pure function of the seed and the checkpoint.

// hostilePolicy evicts the oldest candidates honestly until its after-th
// decision, then misbehaves as told.
type hostilePolicy struct {
	after, calls int
	answer       func(cands []join.Tuple, n int) []int
}

func (p *hostilePolicy) Name() string                  { return "HOSTILE" }
func (p *hostilePolicy) Reset(join.Config, *stats.RNG) { p.calls = 0 }
func (p *hostilePolicy) Evict(_ *join.State, cands []join.Tuple, n int) []int {
	if p.calls++; p.calls > p.after {
		return p.answer(cands, n)
	}
	return oldest(n)
}

// oldest is the honest FIFO answer: the first n candidates.
func oldest(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func uniformTuple(rng *stats.RNG, keys, i int) Tuple {
	return Tuple{Key: rng.IntN(keys), Payload: i}
}

// TestHostileVictimsRefusedBeforeAnyMutation: wrong count, duplicate and
// out-of-range victims panic with the engine's long-standing messages, which
// StepChecked returns as ErrStepFailed, and — because validation precedes any
// write — leave cache and index exactly as they were.
func TestHostileVictimsRefusedBeforeAnyMutation(t *testing.T) {
	cases := []struct {
		name, want string
		answer     func(cands []join.Tuple, n int) []int
	}{
		{"too-many", "engine: policy HOSTILE returned 3 evictions, need 2", func(_ []join.Tuple, n int) []int { return oldest(n + 1) }},
		{"too-few", "engine: policy HOSTILE returned 1 evictions, need 2", func(_ []join.Tuple, n int) []int { return oldest(n - 1) }},
		{"duplicate", "engine: policy HOSTILE returned invalid eviction 3", func([]join.Tuple, int) []int { return []int{3, 3} }},
		{"negative", "engine: policy HOSTILE returned invalid eviction -1", func([]join.Tuple, int) []int { return []int{0, -1} }},
		{"past-the-end", "engine: policy HOSTILE returned invalid eviction 10", func(c []join.Tuple, _ int) []int { return []int{len(c), 0} }},
	}
	for _, tc := range cases {
		t.Run("step/"+tc.name, func(t *testing.T) {
			j, err := NewJoin(Config{CacheSize: 8, Policy: &hostilePolicy{after: 5, answer: tc.answer}})
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(3)
			for i := 0; i < 4+5; i++ { // 4 steps fill the cache, 5 decide honestly
				if _, err := j.StepChecked(uniformTuple(rng, 6, i), uniformTuple(rng, 6, i)); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			before := j.Snapshot()
			_, err = j.StepChecked(uniformTuple(rng, 6, 9), uniformTuple(rng, 6, 9))
			if !errors.Is(err, ErrStepFailed) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want ErrStepFailed carrying %q", err, tc.want)
			}
			if !snapshotsEqual(j.Snapshot(), before) {
				t.Errorf("refused answer moved the cache:\n  before %v\n  after  %v", before, j.Snapshot())
			}
			if err := j.CheckInvariants(); err != nil {
				t.Errorf("refused answer left the operator inconsistent: %v", err)
			}
		})
	}
}

// TestPolicyOverwritingCandidateIsCaught: the candidate slice is the cache, so
// a policy that writes through it corrupts the operator — and CheckInvariants
// says so, naming the index↔cache disagreement.
func TestPolicyOverwritingCandidateIsCaught(t *testing.T) {
	for _, band := range []int{0, 2} {
		scribble := func(cands []join.Tuple, n int) []int {
			cands[len(cands)/2].Value += 1000
			return oldest(n)
		}
		j, err := NewJoin(Config{CacheSize: 8, Band: band, Policy: &hostilePolicy{after: 3, answer: scribble}})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(4)
		for i := 0; i < 4+3; i++ {
			j.Step(uniformTuple(rng, 6, i), uniformTuple(rng, 6, i))
		}
		if err := j.CheckInvariants(); err != nil {
			t.Fatalf("band %d: healthy operator: %v", band, err)
		}
		j.Step(uniformTuple(rng, 6, 7), uniformTuple(rng, 6, 7))
		err = j.CheckInvariants()
		if !errors.Is(err, ErrInvariant) || !strings.Contains(err.Error(), "disagrees with cached") {
			t.Errorf("band %d: got %v, want ErrInvariant naming the index/cache disagreement", band, err)
		}
	}
}

// TestPolicyAppendCannotReachEngine: the slice handed to Evict has no spare
// capacity, so a policy's append lands in its own copy. An operator driven by
// such a policy is indistinguishable from one driven by the honest policy
// making the same choices — through steps and window expiry. (Both
// evict the newest candidates, so the cache fills, sits until the window
// expires it, and fills again: expiry and eviction both happen.)
func TestPolicyAppendCannotReachEngine(t *testing.T) {
	newest := func(cands []join.Tuple, n int) []int {
		out := oldest(n)
		for i := range out {
			out[i] += len(cands) - n
		}
		return out
	}
	sawClamp := true
	grabby := func(cands []join.Tuple, n int) []int {
		if cap(cands) != len(cands) {
			sawClamp = false
		}
		grown := append(cands, join.Tuple{ID: -7, Value: -7, Arrived: -7})
		grown = append(grown, grown...)
		for i := len(cands); i < len(grown); i++ {
			grown[i].Value = 1 << 20
		}
		return newest(cands, n)
	}
	mk := func(pol join.Policy) *Join {
		j, err := NewJoin(Config{CacheSize: 16, Window: 40, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	hostile, honest := mk(&hostilePolicy{answer: grabby}), mk(&hostilePolicy{answer: newest})
	rng := stats.NewRNG(5)
	for i := 0; i < 400; i++ {
		r, s := uniformTuple(rng, 12, i), uniformTuple(rng, 12, -i)
		if got, want := hostile.Step(r, s), honest.Step(r, s); !pairsEqual(got, want) {
			t.Fatalf("step %d: pairs diverge:\n  appending policy %v\n  honest policy    %v", i, got, want)
		}
		if !snapshotsEqual(hostile.Snapshot(), honest.Snapshot()) {
			t.Fatalf("step %d: caches diverge", i)
		}
		if err := hostile.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if !sawClamp {
		t.Error("Evict saw a candidate slice with spare capacity")
	}
	if hostile.Metrics() != honest.Metrics() {
		t.Errorf("metrics diverge: %+v vs %+v", hostile.Metrics(), honest.Metrics())
	}
	if m := hostile.Metrics(); m.Expired == 0 || m.Evictions == 0 || m.Pairs == 0 {
		t.Errorf("run exercised too little: %+v", m)
	}
}

// randRun feeds steps [from, to) of the uniform-key input derived from seed
// to a default-policy (RAND) operator, in batches, and returns the pairs they
// produced. The input is regenerated from step 0 so a step's tuples depend
// only on its number.
func randRun(j *Join, seed uint64, from, to int) []Pair {
	const batch = 64
	rng := stats.NewRNG(seed)
	var all []Pair
	for i := 0; i < to; i += batch {
		b := make([]TuplePair, batch)
		for k := range b {
			b[k] = TuplePair{R: uniformTuple(rng, 512, i+k), S: uniformTuple(rng, 512, -(i + k))}
		}
		if i >= from {
			all = append(all, j.StepBatch(b)...)
		}
	}
	return all
}

// TestRANDSameSeedSameVictims: RAND's victims are a pure function of
// Config.Seed — equal seeds agree on every pair and the whole cache, a
// different seed does not.
func TestRANDSameSeedSameVictims(t *testing.T) {
	mk := func(seed uint64) *Join {
		j, err := NewJoin(Config{CacheSize: 256, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	a, b, c := mk(7), mk(7), mk(8)
	pa, pb := randRun(a, 1, 0, 4096), randRun(b, 1, 0, 4096)
	randRun(c, 1, 0, 4096)
	if !pairsEqual(pa, pb) || !snapshotsEqual(a.Snapshot(), b.Snapshot()) {
		t.Error("two RAND operators with one seed diverged")
	}
	if snapshotsEqual(a.Snapshot(), c.Snapshot()) {
		t.Error("RAND operators with different seeds kept identical caches over 4096 steps")
	}
	if a.Metrics().Evictions != 2*(4096-128) {
		t.Errorf("evictions = %d, want two a step once the 256 slots are full", a.Metrics().Evictions)
	}
}

// TestRANDCheckpointReplayIdentical: a RAND operator checkpointed mid-run,
// restored into a fresh operator and replayed continues byte-identically to
// the uninterrupted run — the sample buffer is scratch, the generator words
// in the policy snapshot are the whole decision state, and the slot layout
// RAND's positions index travels in the checkpoint: the second cut is taken
// eleven cache sizes in, with the slots long out of ID order, and the restored
// operator is checkpointed and restored a second time further on.
func TestRANDCheckpointReplayIdentical(t *testing.T) {
	const again, end = 3584, 4608
	cfg := Config{CacheSize: 256, Seed: 13}
	mk := func() *Join {
		j, err := NewJoin(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// cycle moves from's state into a fresh operator through a checkpoint.
	cycle := func(from *Join) *Join {
		var ckpt bytes.Buffer
		if err := from.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		to := mk()
		if err := to.Restore(&ckpt); err != nil {
			t.Fatal(err)
		}
		return to
	}
	for _, cut := range []int{1536, 11 * 256} {
		base := mk()
		randRun(base, 2, 0, cut)
		want := randRun(base, 2, cut, end)

		orig := mk()
		randRun(orig, 2, 0, cut)
		if scrambled := !slices.IsSorted(slotIDs(orig)); cut >= 10*cfg.CacheSize && !scrambled {
			t.Fatalf("cut %d: the slots are still in ID order", cut)
		}
		restored := cycle(orig)
		got := randRun(restored, 2, cut, again)
		restored = cycle(restored)
		got = append(got, randRun(restored, 2, again, end)...)
		if !pairsEqual(got, want) {
			t.Fatalf("cut %d: restored RAND run diverges from the uninterrupted one (%d vs %d pairs)", cut, len(got), len(want))
		}
		if !snapshotsEqual(restored.Snapshot(), base.Snapshot()) || restored.Metrics() != base.Metrics() {
			t.Errorf("cut %d: final cache or metrics diverge after restore", cut)
		}
		var twice, baseCkpt bytes.Buffer
		if err := errors.Join(restored.Checkpoint(&twice), base.Checkpoint(&baseCkpt)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(twice.Bytes(), baseCkpt.Bytes()) {
			t.Errorf("cut %d: checkpoints of the restored and the uninterrupted run differ", cut)
		}
	}
}

// BenchmarkStepRAND is one default-policy step at steady state — cache full,
// 4096 uniform keys, two victims a step — across cache sizes. A replacement
// costs what it evicts, so ns/step must stay nearly flat in the slot count:
// the "under 2× from 256 to 4096 slots" line PR 16 set and missed (545 →
// 5 010 ns, 9.2×) is met since the cache is a slot table (284 → 410 ns,
// 1.44×; docs/performance.md, "Slot replacement (PR 27)"). Three more shapes
// the ledger has no workload for: /window is window-bound (1024 slots, window
// 300: two expiries and two appends a step, no decision), /hot probes long
// chains (64 keys on 1024 slots, ~16 matches a step), /band looks up the
// five keys of a band-2 probe in the same key table (1024 slots). The equi
// shapes are the key table's and chains' micro-benchmark (docs/performance.md,
// "Key chains").
func BenchmarkStepRAND(b *testing.B) {
	shapes := []struct {
		name string
		cfg  Config
		keys int
	}{
		{"cache=256", Config{CacheSize: 256, Seed: 1}, 4096},
		{"cache=1024", Config{CacheSize: 1024, Seed: 1}, 4096},
		{"cache=4096", Config{CacheSize: 4096, Seed: 1}, 4096},
		{"window", Config{CacheSize: 1024, Window: 300, Seed: 1}, 4096},
		{"hot", Config{CacheSize: 1024, Seed: 1}, 64},
		{"band", Config{CacheSize: 1024, Band: 2, Seed: 1}, 4096},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			j, err := NewJoin(sh.cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := stats.NewRNG(9)
			keys := make([]int, 1<<16)
			for i := range keys {
				keys[i] = rng.IntN(sh.keys)
			}
			step := func(i int) {
				j.Step(Tuple{Key: keys[(2*i)&(len(keys)-1)]}, Tuple{Key: keys[(2*i+1)&(len(keys)-1)]})
			}
			warm := 4 * sh.cfg.CacheSize // full after size/2 steps; the rest settles the scratch buffers
			for i := 0; i < warm; i++ {
				step(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(warm + i)
			}
		})
	}
}
