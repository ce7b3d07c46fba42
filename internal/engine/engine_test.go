package engine

import (
	"testing"
	"testing/quick"

	"stochstream/internal/core"
	"stochstream/internal/dist"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

func trendProcs() [2]process.Process {
	return [2]process.Process{
		&process.LinearTrend{Slope: 1, Intercept: -1, Noise: dist.BoundedNormal(1, 10)},
		&process.LinearTrend{Slope: 1, Intercept: 0, Noise: dist.BoundedNormal(2, 15)},
	}
}

func TestNewJoinValidation(t *testing.T) {
	if _, err := NewJoin(Config{CacheSize: 0}); err == nil {
		t.Fatal("cache 0 should error")
	}
	// No models: defaults to RAND.
	j, err := NewJoin(Config{CacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if j.policy.Name() != "RAND" {
		t.Fatalf("default policy = %s", j.policy.Name())
	}
	// Models present: defaults to HEEB.
	j2, err := NewJoin(Config{CacheSize: 2, Procs: trendProcs()})
	if err != nil {
		t.Fatal(err)
	}
	if j2.policy.Name() != "HEEB" {
		t.Fatalf("model default policy = %s", j2.policy.Name())
	}
}

func TestStepEmitsPairsWithPayloads(t *testing.T) {
	j, err := NewJoin(Config{CacheSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	// t=0: R(1,"a"), S(9).
	if got := j.Step(Tuple{Key: 1, Payload: "a"}, Tuple{Key: 9}); len(got) != 0 {
		t.Fatalf("unexpected pairs %v", got)
	}
	// t=1: S arrival 1 joins cached R(1,"a").
	got := j.Step(Tuple{Key: 8}, Tuple{Key: 1, Payload: "b"})
	if len(got) != 1 {
		t.Fatalf("pairs = %v", got)
	}
	p := got[0]
	if p.Time != 1 || p.R.Payload != "a" || p.S.Payload != "b" || p.R.Key != 1 || p.S.Key != 1 {
		t.Fatalf("pair = %+v", p)
	}
}

func TestStepEmitsSameTimePairs(t *testing.T) {
	j, _ := NewJoin(Config{CacheSize: 4})
	got := j.Step(Tuple{Key: 5, Payload: "r"}, Tuple{Key: 5, Payload: "s"})
	if len(got) != 1 || got[0].R.Payload != "r" || got[0].S.Payload != "s" {
		t.Fatalf("same-time pair missing: %v", got)
	}
}

func TestStepHonorsWindowAndBand(t *testing.T) {
	j, _ := NewJoin(Config{CacheSize: 10, Window: 1})
	j.Step(Tuple{Key: 1}, Tuple{Key: 100})
	// One step later: within window.
	if got := j.Step(Tuple{Key: 200}, Tuple{Key: 1}); len(got) != 1 {
		t.Fatalf("within window: %v", got)
	}
	// Two steps after arrival: expired.
	if got := j.Step(Tuple{Key: 201}, Tuple{Key: 1}); len(got) != 0 {
		t.Fatalf("expired tuple joined: %v", got)
	}

	b, _ := NewJoin(Config{CacheSize: 10, Band: 2})
	b.Step(Tuple{Key: 10}, Tuple{Key: 100})
	if got := b.Step(Tuple{Key: 200}, Tuple{Key: 12}); len(got) != 1 {
		t.Fatalf("band join missing: %v", got)
	}
	if got := b.Step(Tuple{Key: 201}, Tuple{Key: 13}); len(got) != 0 {
		t.Fatalf("outside band joined: %v", got)
	}
}

// The operator's pair count must agree exactly with the batch simulator's
// join count under the same policy and inputs.
func TestOperatorAgreesWithSimulator(t *testing.T) {
	procs := trendProcs()
	rng := stats.NewRNG(9)
	n := 800
	r := procs[0].Generate(rng.Split(), n)
	s := procs[1].Generate(rng.Split(), n)

	mk := func() join.Policy {
		return policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: 3})
	}
	sim := simulate(r, s, mk(), join.Config{CacheSize: 8, Warmup: 0, Procs: procs}, stats.NewRNG(1))

	j, err := NewJoin(Config{CacheSize: 8, Procs: procs, Policy: mk(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	sameTime := 0
	for t2 := 0; t2 < n; t2++ {
		for _, p := range j.Step(Tuple{Key: r[t2]}, Tuple{Key: s[t2]}) {
			if p.SameTime {
				sameTime++
			}
			pairs++
		}
	}
	// The simulator excludes same-time pairs (they are policy-independent);
	// the operator emits them, tagged. Subtract to compare.
	if pairs-sameTime != sim.TotalJoins {
		t.Fatalf("operator pairs %d (same-time %d) != simulator joins %d", pairs, sameTime, sim.TotalJoins)
	}
	got := j.Metrics()
	if got.Steps != n || got.Pairs != pairs || got.SameTimePairs != sameTime || got.CacheLen != 8 {
		t.Fatalf("metrics = %+v", got)
	}
}

func TestSnapshotTracksCache(t *testing.T) {
	j, _ := NewJoin(Config{CacheSize: 3})
	j.Step(Tuple{Key: 1}, Tuple{Key: 2})
	snap := j.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	if snap[0].Stream != core.StreamR || snap[1].Stream != core.StreamS {
		t.Fatalf("snapshot order = %v", snap)
	}
	j.Step(Tuple{Key: 3}, Tuple{Key: 4})
	if got := len(j.Snapshot()); got != 3 {
		t.Fatalf("cache len = %d, want 3 (capacity)", got)
	}
}

func TestDefaultHEEBOutperformsRandThroughOperator(t *testing.T) {
	procs := trendProcs()
	rng := stats.NewRNG(10)
	n := 1500
	r := procs[0].Generate(rng.Split(), n)
	s := procs[1].Generate(rng.Split(), n)
	run := func(cfg Config) int {
		j, err := NewJoin(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			j.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
		}
		return j.Metrics().Pairs
	}
	heeb := run(Config{CacheSize: 8, Procs: procs, Seed: 1})
	rand := run(Config{CacheSize: 8, Seed: 1}) // no models → RAND
	if heeb <= rand {
		t.Fatalf("default HEEB %d <= RAND %d", heeb, rand)
	}
}

// Property: across random configurations (window, band, cache size), the
// indexed operator agrees pair-for-pair with the reference oracle, and —
// when no window is configured, so eager pruning cannot change the cache
// population — its policy-dependent pair count equals the batch simulator's.
// (Under a window the operator intentionally diverges from the simulator:
// pruning frees slots the simulator leaves padded with expired tuples.)
func TestQuickOperatorSimulatorEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 50 + rng.IntN(250)
		k := 1 + rng.IntN(6)
		window := 0
		if rng.IntN(2) == 1 {
			window = 2 + rng.IntN(10)
		}
		band := rng.IntN(3)
		procs := trendProcs()
		r := procs[0].Generate(stats.NewRNG(seed+1), n)
		s := procs[1].Generate(stats.NewRNG(seed+2), n)
		mk := func() join.Policy {
			return policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: 3})
		}
		op, err := NewJoin(Config{CacheSize: k, Window: window, Band: band, Procs: procs, Policy: mk()})
		if err != nil {
			return false
		}
		ref, err := NewReferenceJoin(Config{CacheSize: k, Window: window, Band: band, Procs: procs, Policy: mk()})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			po := op.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
			pr := ref.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
			if !pairsEqual(po, pr) {
				return false
			}
		}
		if op.Metrics() != ref.Metrics() {
			return false
		}
		if window == 0 {
			sim := simulate(r, s, mk(), join.Config{
				CacheSize: k, Warmup: 0, Window: window, Band: band, Procs: procs,
			}, stats.NewRNG(1))
			m := op.Metrics()
			return m.Pairs-m.SameTimePairs == sim.TotalJoins
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
