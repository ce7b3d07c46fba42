package cachesim

import (
	"testing"
	"testing/quick"

	"stochstream/internal/cachepolicy"
	"stochstream/internal/engine"
	"stochstream/internal/join"
	"stochstream/internal/stats"
)

func TestRunCountsHitsAndMisses(t *testing.T) {
	refs := []int{1, 2, 1, 3, 2, 1}
	res := Run(refs, &cachepolicy.LRU{}, Config{Capacity: 10}, stats.NewRNG(1))
	// Compulsory misses for 1, 2, 3; the rest hit.
	if res.Misses != 3 || res.Hits != 3 {
		t.Fatalf("hits/misses = %d/%d, want 3/3", res.Hits, res.Misses)
	}
}

func TestRunWarmupCounter(t *testing.T) {
	refs := []int{1, 2, 3, 4}
	res := Run(refs, &cachepolicy.LRU{}, Config{Capacity: 1, Warmup: 2}, stats.NewRNG(1))
	if res.Misses != 4 || res.MissesAfterWarmup != 2 {
		t.Fatalf("misses = %d/%d, want 4/2", res.Misses, res.MissesAfterWarmup)
	}
}

func TestRunHitTrace(t *testing.T) {
	refs := []int{1, 1, 2, 1}
	res := Run(refs, &cachepolicy.LRU{}, Config{Capacity: 5, TrackTrace: true}, stats.NewRNG(1))
	want := []byte{0, 1, 0, 1}
	for i := range want {
		if res.HitTrace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", res.HitTrace, want)
		}
	}
}

func TestRunLRUEviction(t *testing.T) {
	// Capacity 2: referencing 1, 2, 3 evicts 1; then 1 misses again.
	refs := []int{1, 2, 3, 1}
	res := Run(refs, &cachepolicy.LRU{}, Config{Capacity: 2}, stats.NewRNG(1))
	if res.Hits != 0 || res.Misses != 4 {
		t.Fatalf("hits/misses = %d/%d, want 0/4", res.Hits, res.Misses)
	}
	// Capacity 2 with re-touch: 1, 2, 1, 3 evicts 2 (LRU), so final 1 hits.
	refs2 := []int{1, 2, 1, 3, 1}
	res2 := Run(refs2, &cachepolicy.LRU{}, Config{Capacity: 2}, stats.NewRNG(1))
	if res2.Hits != 2 {
		t.Fatalf("hits = %d, want 2", res2.Hits)
	}
}

func TestRunPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	Run([]int{1}, &cachepolicy.LRU{}, Config{Capacity: 0}, stats.NewRNG(1))
}

func TestReduceProducesDistinctStreams(t *testing.T) {
	refs := []int{7, 8, 7, 9, 7}
	r, s := Reduce(refs)
	if len(r) != len(refs) || len(s) != len(refs) {
		t.Fatal("length mismatch")
	}
	// No duplicates within either stream (the paper's observation 1).
	seenR, seenS := map[int]bool{}, map[int]bool{}
	for i := range r {
		if seenR[r[i]] || seenS[s[i]] {
			t.Fatalf("duplicate within a stream: r=%v s=%v", r, s)
		}
		seenR[r[i]] = true
		seenS[s[i]] = true
	}
	// The k-th S' tuple joins exactly the (k+1)-th occurrence in R':
	// s[0] encodes (7,1) and r[2] encodes (7,1).
	if s[0] != r[2] {
		t.Fatalf("supply tuple should match next occurrence: s[0]=%d r[2]=%d", s[0], r[2])
	}
	if s[2] != r[4] {
		t.Fatalf("s[2]=%d should equal r[4]=%d", s[2], r[4])
	}
	// And never an earlier or same-time occurrence.
	if s[0] == r[0] {
		t.Fatal("supply tuple equals its own occurrence")
	}
}

// Theorem 1: the number of cache hits equals the number of join results
// under the reduction, for every reasonable policy.
func theorem1Holds(t *testing.T, refs []int, capacity int, mk func() Policy, seed uint64) {
	t.Helper()
	cacheRes := Run(refs, mk(), Config{Capacity: capacity}, stats.NewRNG(seed))
	rPrime, sPrime := Reduce(refs)
	adapter := NewJoinAdapter(mk(), refs)
	joinRes := engine.Run(rPrime, sPrime, adapter, join.Config{CacheSize: capacity, Warmup: 0}, stats.NewRNG(seed))
	if cacheRes.Hits != joinRes.TotalJoins {
		t.Fatalf("Theorem 1 violated: hits %d != joins %d (refs=%v cap=%d policy=%s)",
			cacheRes.Hits, joinRes.TotalJoins, refs, capacity, mk().Name())
	}
}

func TestTheorem1LRU(t *testing.T) {
	theorem1Holds(t, []int{1, 2, 1, 3, 1, 2, 4, 1, 2, 3}, 2, func() Policy { return &cachepolicy.LRU{} }, 1)
}

func TestTheorem1LFU(t *testing.T) {
	theorem1Holds(t, []int{5, 5, 6, 7, 5, 6, 8, 5, 7, 6, 5}, 2, func() Policy { return &cachepolicy.LFU{} }, 1)
}

func TestTheorem1LFD(t *testing.T) {
	theorem1Holds(t, []int{1, 2, 3, 1, 2, 4, 3, 1, 4, 2}, 2, func() Policy { return &cachepolicy.LFD{} }, 1)
}

func TestTheorem1LRUK(t *testing.T) {
	// Theorem 1 applies to policies that are deterministic functions of the
	// cache state and reference history (RAND's victim depends on internal
	// cache ordering, which legitimately differs across the reduction).
	theorem1Holds(t, []int{1, 2, 3, 1, 2, 4, 3, 1, 1, 2, 3, 4}, 2, func() Policy { return &cachepolicy.LRUK{K: 2} }, 42)
}

// Property form over random reference sequences and policies.
func TestQuickTheorem1(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 5 + rng.IntN(40)
		vals := 2 + rng.IntN(5)
		refs := make([]int, n)
		for i := range refs {
			refs[i] = rng.IntN(vals)
		}
		capacity := 1 + rng.IntN(3)
		var mk func() Policy
		switch rng.IntN(4) {
		case 0:
			mk = func() Policy { return &cachepolicy.LRU{} }
		case 1:
			mk = func() Policy { return &cachepolicy.LFU{} }
		case 2:
			mk = func() Policy { return &cachepolicy.LFD{} }
		default:
			mk = func() Policy { return &cachepolicy.LRUK{K: 2} }
		}
		cacheRes := Run(refs, mk(), Config{Capacity: capacity}, stats.NewRNG(seed+1))
		rPrime, sPrime := Reduce(refs)
		adapter := NewJoinAdapter(mk(), refs)
		joinRes := engine.Run(rPrime, sPrime, adapter, join.Config{CacheSize: capacity, Warmup: 0}, stats.NewRNG(seed+1))
		return cacheRes.Hits == joinRes.TotalJoins
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The reduction preserves optimality: LFD through the adapter achieves the
// same joins as the offline flow optimum restricted to reasonable policies.
func TestReductionLFDIsOptimalAmongReasonable(t *testing.T) {
	refs := []int{1, 2, 3, 1, 2, 4, 3, 1, 4, 2, 1, 3}
	capacity := 2
	lfd := Run(refs, &cachepolicy.LFD{}, Config{Capacity: capacity}, stats.NewRNG(1))
	for _, other := range []Policy{&cachepolicy.LRU{}, &cachepolicy.LFU{}, &cachepolicy.LRUK{K: 2}} {
		res := Run(refs, other, Config{Capacity: capacity}, stats.NewRNG(1))
		if res.Hits > lfd.Hits {
			t.Fatalf("%s beat LFD: %d > %d", other.Name(), res.Hits, lfd.Hits)
		}
	}
}

// Property: hits + misses == len(refs), hit rate can only improve with
// capacity for LFD, and the hit trace is consistent with the counters.
func TestQuickCacheAccounting(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 10 + rng.IntN(200)
		vals := 2 + rng.IntN(8)
		refs := make([]int, n)
		for i := range refs {
			refs[i] = rng.IntN(vals)
		}
		cap1 := 1 + rng.IntN(4)
		res := Run(refs, &cachepolicy.LFD{}, Config{Capacity: cap1, TrackTrace: true}, stats.NewRNG(seed))
		if res.Hits+res.Misses != n {
			return false
		}
		hits := 0
		for _, b := range res.HitTrace {
			hits += int(b)
		}
		if hits != res.Hits {
			return false
		}
		bigger := Run(refs, &cachepolicy.LFD{}, Config{Capacity: cap1 + 2}, stats.NewRNG(seed))
		return bigger.Hits >= res.Hits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
