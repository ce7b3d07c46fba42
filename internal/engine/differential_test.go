package engine

import (
	"testing"
	"time"

	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/stats"
)

// pairsEqual compares two emitted slices structurally; payloads in the
// harness are nil or comparable, so struct equality is exact.
func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func snapshotsEqual(a, b []join.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runDifferential drives the indexed operator and the reference oracle over
// the same trace with independently-constructed but identically-seeded
// policies, requiring byte-identical pair streams, identical cache contents
// (hence identical eviction choices), and identical counters at every step.
// The trace is trendProcs' streams, each key passed through keys when it is
// not nil.
func runDifferential(t *testing.T, name string, cfgOp, cfgRef Config, n int, traceSeed uint64, keys func(int) int) {
	t.Helper()
	procs := trendProcs()
	rng := stats.NewRNG(traceSeed)
	r := procs[0].Generate(rng.Split(), n)
	s := procs[1].Generate(rng.Split(), n)
	for i := 0; keys != nil && i < n; i++ {
		r[i], s[i] = keys(r[i]), keys(s[i])
	}

	op, err := NewJoin(cfgOp)
	if err != nil {
		t.Fatalf("%s: NewJoin: %v", name, err)
	}
	ref, err := NewReferenceJoin(cfgRef)
	if err != nil {
		t.Fatalf("%s: NewReferenceJoin: %v", name, err)
	}
	for i := 0; i < n; i++ {
		// Distinct tags, so pairsEqual also holds every echoed Seq to the
		// oracle's (which keeps the caller's tuple whole).
		rt, st := Tuple{Key: r[i], Seq: uint64(2 * i)}, Tuple{Key: s[i], Seq: uint64(2*i + 1)}
		po := op.Step(rt, st)
		pr := ref.Step(rt, st)
		if !pairsEqual(po, pr) {
			t.Fatalf("%s: step %d pairs diverge:\n  op  %v\n  ref %v", name, i, po, pr)
		}
		// Snapshot equality implies the two made identical eviction choices.
		if i%251 == 0 || i == n-1 {
			if !snapshotsEqual(op.Snapshot(), ref.Snapshot()) {
				t.Fatalf("%s: step %d caches diverge:\n  op  %v\n  ref %v", name, i, op.Snapshot(), ref.Snapshot())
			}
		}
	}
	mo, mr := op.Metrics(), ref.Metrics()
	if mo != mr {
		t.Fatalf("%s: metrics diverge:\n  op  %+v\n  ref %+v", name, mo, mr)
	}
}

func heebOpts() policy.HEEBOptions {
	return policy.HEEBOptions{LifetimeEstimate: 4}
}

// The gate for the whole hot-path overhaul: ≥10k-step random traces per
// configuration class, optimized operator vs reference oracle, both running
// the same policy construction.
func TestDifferentialHEEB10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-step differential traces are not short")
	}
	const n = 10000
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"equi", Config{CacheSize: 16}},
		{"band", Config{CacheSize: 16, Band: 2}},
		{"window", Config{CacheSize: 16, Window: 12}},
		{"band-window", Config{CacheSize: 8, Band: 1, Window: 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfgOp, cfgRef := tc.cfg, tc.cfg
			cfgOp.Procs, cfgRef.Procs = trendProcs(), trendProcs()
			cfgOp.Policy = policy.NewHEEB(heebOpts())
			cfgRef.Policy = policy.NewHEEB(heebOpts())
			cfgOp.Seed, cfgRef.Seed = 7, 7
			runDifferential(t, tc.name, cfgOp, cfgRef, n, 101, nil)
		})
	}
}

// The strongest end-to-end equivalence claim: the optimized operator running
// HEEB over the forecast window against the oracle running the seed scoring
// path (NoMemo). Any float drift in the window or the tabulated L would
// surface here.
func TestDifferentialMemoVsSeedScoring(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-step differential traces are not short")
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"equi", Config{CacheSize: 16}},
		{"band-window", Config{CacheSize: 12, Band: 2, Window: 15}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfgOp, cfgRef := tc.cfg, tc.cfg
			cfgOp.Procs, cfgRef.Procs = trendProcs(), trendProcs()
			refOpts := heebOpts()
			refOpts.NoMemo = true
			cfgOp.Policy = policy.NewHEEB(heebOpts())
			cfgRef.Policy = policy.NewHEEB(refOpts)
			cfgOp.Seed, cfgRef.Seed = 3, 3
			runDifferential(t, tc.name, cfgOp, cfgRef, 10000, 77, nil)
		})
	}
}

// edgeKeys folds a key onto the four keys at each end of the domain, so a
// band probe's interval crosses MinKey or MaxKey.
func edgeKeys(k int) int {
	u := (k%8 + 8) % 8
	if u < 4 {
		return MinKey + u
	}
	return MaxKey - (u - 4)
}

// Model-free policies across the same configuration grid; cheap, so every
// config runs the full 10k steps. Two rows probe the ends of the key domain:
// a band as wide as the domain, which the band probe answers by scanning the
// table's cells and PROB and LIFE by reading their count tables' totals,
// and keys at MinKey and MaxKey, whose band the probe clips to the domain.
func TestDifferentialModelFreePolicies10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-step differential traces are not short")
	}
	mk := map[string]func() join.Policy{
		"rand": func() join.Policy { return &policy.Rand{} },
		"prob": func() join.Policy { return &policy.Prob{} },
		"life": func() join.Policy {
			return &policy.Life{Lifetime: func(now int, tp join.Tuple) int { return 40 - (now - tp.Arrived) }}
		},
	}
	for polName, mkPol := range mk {
		for _, tc := range []struct {
			name string
			cfg  Config
			keys func(int) int
		}{
			{"equi", Config{CacheSize: 24}, nil},
			{"band", Config{CacheSize: 24, Band: 3}, nil},
			{"window", Config{CacheSize: 24, Window: 20}, nil},
			{"band-domain", Config{CacheSize: 24, Band: MaxKey - MinKey}, nil},
			{"band-edges", Config{CacheSize: 24, Band: 3}, edgeKeys},
		} {
			t.Run(polName+"/"+tc.name, func(t *testing.T) {
				cfgOp, cfgRef := tc.cfg, tc.cfg
				cfgOp.Policy, cfgRef.Policy = mkPol(), mkPol()
				cfgOp.Seed, cfgRef.Seed = 13, 13
				runDifferential(t, tc.name, cfgOp, cfgRef, 10000, 55, tc.keys)
			})
		}
	}
}

// TestCountTableBandCostIsBounded: a PROB or LIFE decision costs no more than
// the values its count tables hold, whatever the band, and one read when the
// band covers them all. Two shapes, each inside a second, over 100 times what
// either takes, so only a cost of the wrong order fails:
//   - half the key domain over keys at both ends, a band that never covers
//     both ends: summing it key by key is about 2^32 map reads a candidate,
//     so the table's few entries are read instead;
//   - the whole key domain over 7 000 steps of fresh keys, a band that
//     covers every value: reading the table is up to 7 000 entries a
//     candidate, about 2 s in all, so the counts' total is read instead.
func TestCountTableBandCostIsBounded(t *testing.T) {
	for _, pol := range []func() join.Policy{
		func() join.Policy { return &policy.Prob{} },
		func() join.Policy {
			return &policy.Life{Lifetime: func(now int, tp join.Tuple) int { return 40 - (now - tp.Arrived) }}
		},
	} {
		for _, c := range []struct {
			name  string
			band  int
			steps int
			keys  func(i int) (r, s int)
		}{
			{"half-domain-ends", (MaxKey - MinKey) / 2, 32, func(i int) (int, int) { return edgeKeys(i), edgeKeys(i + 3) }},
			{"whole-domain-fresh-keys", MaxKey - MinKey, 7000, func(i int) (int, int) { return MinKey + i, MaxKey - i }},
		} {
			p := pol()
			j, err := NewJoin(Config{CacheSize: 4, Band: c.band, Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < c.steps; i++ {
					r, s := c.keys(i)
					j.Step(Tuple{Key: r}, Tuple{Key: s})
				}
			}()
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatalf("%s %s: %d arrivals took over a second", p.Name(), c.name, 2*c.steps)
			}
			if m := j.Metrics(); m.Evictions == 0 || m.Pairs == 0 {
				t.Fatalf("%s %s: %+v: the policy never decided, or the band joined nothing", p.Name(), c.name, m)
			}
		}
	}
}

// Expired tuples must be pruned eagerly: a tuple older than the window frees
// its slot before the next replacement decision, so a full-but-expired cache
// admits both arrivals without consulting the policy. This is the regression
// test for the seed's leak, where expired entries sat in the cache
// indefinitely, soaking up budget and forcing evictions of live tuples.
func TestWindowExpiredTuplesArePruned(t *testing.T) {
	j, err := NewJoin(Config{CacheSize: 4, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	// t=0, t=1: fill the cache with four tuples.
	j.Step(Tuple{Key: 1}, Tuple{Key: 2})
	j.Step(Tuple{Key: 3}, Tuple{Key: 4})
	if m := j.Metrics(); m.CacheLen != 4 || m.Evictions != 0 || m.Expired != 0 {
		t.Fatalf("after fill: %+v", m)
	}
	// t=2: the t=0 pair is still in-window (age 2); cache over budget, so the
	// policy must evict.
	j.Step(Tuple{Key: 5}, Tuple{Key: 6})
	if m := j.Metrics(); m.CacheLen != 4 || m.Evictions != 2 || m.Expired != 0 {
		t.Fatalf("after t=2: %+v", m)
	}
	// Walk far past the window: every cached tuple expires, so admissions
	// proceed with NO further policy evictions.
	evBefore := j.Metrics().Evictions
	j.time += 10 // jump the clock past every arrival's window
	j.state.Time = j.time
	j.Step(Tuple{Key: 7}, Tuple{Key: 8})
	m := j.Metrics()
	if m.Expired != 4 {
		t.Fatalf("expired = %d, want 4 (whole cache aged out): %+v", m.Expired, m)
	}
	if m.Evictions != evBefore {
		t.Fatalf("pruning must free slots without policy evictions: %+v", m)
	}
	if m.CacheLen != 2 {
		t.Fatalf("cache should hold exactly the two fresh arrivals: %+v", m)
	}
	for _, tp := range j.Snapshot() {
		if j.time-1-tp.Arrived > j.cfg.Window {
			t.Fatalf("expired tuple %+v survived pruning", tp)
		}
	}
}

// The seed treated expired entries as dead weight: they were skipped when
// matching but still occupied cache slots, forcing live tuples out. With
// pruning, the freed budget must never produce FEWER results than the seed
// behavior on a window workload.
func TestPruningNeverLosesResults(t *testing.T) {
	procs := trendProcs()
	rng := stats.NewRNG(31)
	n := 2000
	r := procs[0].Generate(rng.Split(), n)
	s := procs[1].Generate(rng.Split(), n)

	run := func(window int) int {
		j, err := NewJoin(Config{CacheSize: 6, Window: window, Procs: procs, Policy: policy.NewHEEB(heebOpts()), Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := 0; i < n; i++ {
			total += len(j.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]}))
		}
		return total
	}
	// The seed's loop (simulate) keeps expired tuples padding the cache;
	// compare against it on the same trace.
	sim := joinRunSeedSemantics(t, r, s, 6, 8)
	got := run(8)
	if got-sameTimeCount(t, r, s, 0) < sim {
		t.Fatalf("pruned operator produced %d policy-dependent pairs, seed semantics %d", got, sim)
	}
}

func joinRunSeedSemantics(t *testing.T, r, s []int, cacheSize, window int) int {
	t.Helper()
	procs := trendProcs()
	res := simulate(r, s, policy.NewHEEB(heebOpts()), join.Config{
		CacheSize: cacheSize, Window: window, Warmup: 0, Procs: procs,
	}, stats.NewRNG(6))
	return res.TotalJoins
}

func sameTimeCount(t *testing.T, r, s []int, band int) int {
	t.Helper()
	c := 0
	for i := range r {
		if keysMatch(r[i], s[i], band) {
			c++
		}
	}
	return c
}
