package join_test

import (
	"slices"
	"stochstream/internal/engine"
	"stochstream/internal/join"
	"testing"

	"stochstream/internal/core"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// keepNewest evicts the oldest tuples (FIFO), a trivial deterministic policy
// for exercising the simulator. Arrival order is ID order; the operator lists
// its cache by slot, not by age.
type keepNewest struct{}

func (keepNewest) Name() string                  { return "fifo" }
func (keepNewest) Reset(join.Config, *stats.RNG) {}
func (keepNewest) Evict(_ *join.State, cands []join.Tuple, n int) []int {
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cands[a].ID - cands[b].ID })
	return idx[:n]
}

func TestRunCountsJoins(t *testing.T) {
	// Cache big enough to hold everything: every cross-time match counts.
	r := []int{1, 2, 3, 4}
	s := []int{9, 1, 2, 1}
	res := engine.Run(r, s, keepNewest{}, join.Config{CacheSize: 100, Warmup: 0}, stats.NewRNG(1))
	// s[1]=1 joins cached r[0]=1; s[2]=2 joins r[1]; s[3]=1 joins r[0].
	if res.Joins != 3 || res.TotalJoins != 3 {
		t.Fatalf("Joins = %d TotalJoins = %d, want 3/3", res.Joins, res.TotalJoins)
	}
	if res.Evictions != 0 {
		t.Fatalf("Evictions = %d, want 0", res.Evictions)
	}
}

func TestRunSameTimeMatchesNotCounted(t *testing.T) {
	r := []int{5, 6}
	s := []int{5, 6}
	res := engine.Run(r, s, keepNewest{}, join.Config{CacheSize: 10, Warmup: 0}, stats.NewRNG(1))
	if res.TotalJoins != 0 {
		t.Fatalf("same-time joins must not count, got %d", res.TotalJoins)
	}
}

func TestRunDuplicateCachedTuplesEachJoin(t *testing.T) {
	// Two R tuples with the same value both join a later S arrival.
	r := []int{7, 7, 0}
	s := []int{1, 2, 7}
	res := engine.Run(r, s, keepNewest{}, join.Config{CacheSize: 10, Warmup: 0}, stats.NewRNG(1))
	if res.TotalJoins != 2 {
		t.Fatalf("TotalJoins = %d, want 2", res.TotalJoins)
	}
}

func TestRunWarmupExcludesEarlyJoins(t *testing.T) {
	// Joins: t=1 (s=1 × r0), t=2 (r=1 × s1), t=3 (s=1 × r0 AND × r2).
	r := []int{1, 0, 1, 0}
	s := []int{9, 1, 9, 1}
	cfg := join.Config{CacheSize: 10, Warmup: 2}
	res := engine.Run(r, s, keepNewest{}, cfg, stats.NewRNG(1))
	if res.TotalJoins != 4 || res.Joins != 3 {
		t.Fatalf("TotalJoins = %d Joins = %d, want 4/3", res.TotalJoins, res.Joins)
	}
	// Default warm-up is 4x cache size.
	if got := (join.Config{CacheSize: 3, Warmup: -1}).EffectiveWarmup(); got != 12 {
		t.Fatalf("EffectiveWarmup = %d, want 12", got)
	}
}

func TestRunEvictionMakesTupleUnavailable(t *testing.T) {
	// Cache of 1: FIFO keeps only the newest arrival (the S tuple at each
	// t), so the R tuple from t=0 cannot join at t=2.
	r := []int{1, 0, 0}
	s := []int{8, 9, 1}
	res := engine.Run(r, s, keepNewest{}, join.Config{CacheSize: 1, Warmup: 0}, stats.NewRNG(1))
	if res.TotalJoins != 0 {
		t.Fatalf("TotalJoins = %d, want 0 after eviction", res.TotalJoins)
	}
	if res.Evictions != 2*3-1 {
		t.Fatalf("Evictions = %d, want 5", res.Evictions)
	}
}

func TestRunWindowSemantics(t *testing.T) {
	// r[0]=1 matches s at t=1 and t=3; window 2 cuts off t=3.
	r := []int{1, 0, 0, 0}
	s := []int{8, 1, 9, 1}
	noWin := engine.Run(r, s, keepNewest{}, join.Config{CacheSize: 10, Warmup: 0}, stats.NewRNG(1))
	if noWin.TotalJoins != 2 {
		t.Fatalf("unwindowed TotalJoins = %d, want 2", noWin.TotalJoins)
	}
	win := engine.Run(r, s, keepNewest{}, join.Config{CacheSize: 10, Warmup: 0, Window: 2}, stats.NewRNG(1))
	if win.TotalJoins != 1 {
		t.Fatalf("windowed TotalJoins = %d, want 1", win.TotalJoins)
	}
}

func TestRunNoValueNeverJoins(t *testing.T) {
	r := []int{process.NoValue, 0}
	s := []int{5, process.NoValue}
	res := engine.Run(r, s, keepNewest{}, join.Config{CacheSize: 10, Warmup: 0}, stats.NewRNG(1))
	if res.TotalJoins != 0 {
		t.Fatalf("NoValue joined: %d", res.TotalJoins)
	}
}

func TestRunOccupancyTrace(t *testing.T) {
	r := []int{1, 2, 3}
	s := []int{4, 5, 6}
	res := engine.Run(r, s, keepNewest{}, join.Config{CacheSize: 4, Warmup: 0, TrackOccupancy: true}, stats.NewRNG(1))
	if len(res.OccupancyR) != 3 {
		t.Fatalf("trace length = %d", len(res.OccupancyR))
	}
	// Steps 0-1: cache holds both arrivals each time → 1/2 R fraction.
	if res.OccupancyR[0] != 0.5 || res.OccupancyR[1] != 0.5 {
		t.Fatalf("occupancy = %v", res.OccupancyR)
	}
}

func TestRunPanicsOnBadInput(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("length mismatch", func() {
		engine.Run([]int{1}, []int{1, 2}, keepNewest{}, join.Config{CacheSize: 1}, stats.NewRNG(1))
	})
	mustPanic("zero cache", func() {
		engine.Run([]int{1}, []int{1}, keepNewest{}, join.Config{CacheSize: 0}, stats.NewRNG(1))
	})
}

type badPolicy struct{ mode int }

func (p badPolicy) Name() string                  { return "bad" }
func (p badPolicy) Reset(join.Config, *stats.RNG) {}
func (p badPolicy) Evict(_ *join.State, cands []join.Tuple, n int) []int {
	switch p.mode {
	case 0:
		return nil // too few
	case 1:
		return []int{0, 0} // duplicate
	default:
		return []int{len(cands), 1} // out of range
	}
}

func TestRunRejectsInvalidEvictions(t *testing.T) {
	r := []int{1, 2, 3}
	s := []int{4, 5, 6}
	for mode := 0; mode < 3; mode++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("mode %d did not panic", mode)
				}
			}()
			engine.Run(r, s, badPolicy{mode: mode}, join.Config{CacheSize: 2, Warmup: 0}, stats.NewRNG(1))
		}()
	}
}

// eagerDropAll discards everything every step; exercises EagerEvictor.
type eagerDropAll struct{}

func (eagerDropAll) Name() string                  { return "eager" }
func (eagerDropAll) Reset(join.Config, *stats.RNG) {}
func (eagerDropAll) EagerEvict()                   {}
func (eagerDropAll) Evict(_ *join.State, cands []join.Tuple, _ int) []int {
	out := make([]int, len(cands))
	for i := range out {
		out[i] = i
	}
	return out
}

func TestRunEagerEvictorCalledBelowCapacity(t *testing.T) {
	r := []int{1, 0}
	s := []int{9, 1} // would join r[0] if cached
	res := engine.Run(r, s, eagerDropAll{}, join.Config{CacheSize: 100, Warmup: 0}, stats.NewRNG(1))
	if res.TotalJoins != 0 {
		t.Fatalf("eager policy emptied the cache, yet joins = %d", res.TotalJoins)
	}
	if res.Evictions != 4 {
		t.Fatalf("Evictions = %d, want 4", res.Evictions)
	}
}

func TestStateProcs(t *testing.T) {
	cfg := join.Config{Procs: [2]process.Process{&process.Stationary{}, nil}}
	st := &join.State{Config: cfg}
	if st.Procs()[core.StreamR] == nil {
		t.Fatal("Procs lost the model")
	}
}
