package join_test

import (
	"stochstream/internal/engine"
	"stochstream/internal/join"
	"testing"
	"testing/quick"

	"stochstream/internal/core"
	"stochstream/internal/stats"
)

// auditPolicy wraps a random-but-valid policy and asserts simulator
// invariants from the inside: candidate ordering (cache before arrivals),
// stable tuple identity, and arrival freshness.
type auditPolicy struct {
	t       *testing.T
	rng     *stats.RNG
	lastIDs map[int]bool
	cache   int
	primed  bool // identity checks start after the cache first fills
	// lastTime is the step of the last decision.
	lastTime int
}

func (a *auditPolicy) Name() string { return "audit" }

func (a *auditPolicy) Reset(cfg join.Config, rng *stats.RNG) {
	a.rng = rng
	a.lastIDs = map[int]bool{}
	a.cache = cfg.CacheSize
	a.primed = false
}

func (a *auditPolicy) Evict(st *join.State, cands []join.Tuple, n int) []int {
	t := a.t
	if len(cands) > a.cache+2 {
		t.Fatalf("candidates %d exceed cache+2", len(cands))
	}
	// The two arrivals are the last two candidates and carry the current time.
	for i, c := range cands[len(cands)-2:] {
		if c.Arrived != st.Time {
			t.Fatalf("arrival %d has Arrived=%d at time %d", i, c.Arrived, st.Time)
		}
	}
	// Cached tuples must be ones we chose to keep before (stable identity);
	// the fill phase before the first eviction admits tuples implicitly, and so
	// does a step whose window expiry left room for its arrivals.
	for _, c := range cands[:len(cands)-2] {
		if a.primed && !a.lastIDs[c.ID] && c.Arrived <= a.lastTime {
			t.Fatalf("cache contains tuple %d we never kept", c.ID)
		}
		if c.Arrived >= st.Time {
			t.Fatalf("cached tuple %d claims future arrival", c.ID)
		}
	}
	a.primed = true
	a.lastTime = st.Time
	// Histories cover exactly [0, st.Time].
	if st.Hists[0].T0() != st.Time || st.Hists[1].T0() != st.Time {
		t.Fatalf("history T0 %d/%d at time %d", st.Hists[0].T0(), st.Hists[1].T0(), st.Time)
	}
	// Evict a random valid subset and remember the survivors.
	perm := a.rng.Perm(len(cands))
	evict := perm[:n]
	drop := map[int]bool{}
	for _, i := range evict {
		drop[i] = true
	}
	a.lastIDs = map[int]bool{}
	for i, c := range cands {
		if !drop[i] {
			a.lastIDs[c.ID] = true
		}
	}
	return evict
}

func TestSimulatorInvariantsUnderRandomPolicy(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 20 + rng.IntN(80)
		k := 1 + rng.IntN(5)
		vals := 1 + rng.IntN(6)
		r := make([]int, n)
		s := make([]int, n)
		for i := range r {
			r[i] = rng.IntN(vals)
			s[i] = rng.IntN(vals)
		}
		ap := &auditPolicy{t: t}
		res := engine.Run(r, s, ap, join.Config{CacheSize: k, Warmup: 0, Window: rng.IntN(3) * 5}, stats.NewRNG(seed+1))
		return res.TotalJoins >= res.Joins && res.Joins >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// No online policy can exceed the offline optimum — across random policies,
// workloads, cache sizes and windows.
func TestQuickNoPolicyBeatsOPT(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 20 + rng.IntN(60)
		k := 1 + rng.IntN(4)
		vals := 1 + rng.IntN(5)
		window := 0
		if rng.IntN(2) == 1 {
			window = 2 + rng.IntN(8)
		}
		r := make([]int, n)
		s := make([]int, n)
		for i := range r {
			r[i] = rng.IntN(vals)
			s[i] = rng.IntN(vals)
		}
		ap := &auditPolicy{t: t}
		res := engine.Run(r, s, ap, join.Config{CacheSize: k, Warmup: 0, Window: window}, stats.NewRNG(seed+1))
		opt := core.OptOfflineJoin(r, s, k, window)
		return res.TotalJoins <= opt.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
