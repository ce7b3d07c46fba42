package shardrt

import (
	"fmt"
	"slices"
	"testing"

	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/stats"
	"stochstream/internal/workload"
)

// TestShardedYieldFlatOverUptime: sharding must not give the yield away as
// the run grows. On the ledger's trend — the scaled ROOF models, 64 slots,
// batches of 8 — the pairs a policy can earn (those not of one step's two
// arrivals) of a 4-shard runtime, over those of a 1-shard one, must have a
// median over seeds 1–3 of at least 0.95 after 2 048, 8 192 and 32 768 steps,
// under HEEB and under RAND, and the three medians must lie within 0.03 of
// each other. The shorter lengths are prefixes of the longest run: a run's
// first n steps are the run of n steps. While a shard paired its R and S
// arrivals by position, one stream entered a shard's cache late by a lane
// tail that grew as √steps, and on a trend that lateness outlived the live
// window: the ratio fell from 0.45–0.61 to 0.11–0.15 under RAND.
func TestShardedYieldFlatOverUptime(t *testing.T) {
	lengths := []int{2048, 8192, 32768}
	const batch = 8
	n := lengths[len(lengths)-1]
	procs := workload.TrendSpec{Lag: 1, RBound: 40, SBound: 60, RSigma: 13.2, SSigma: 20}.Join().Procs
	// earned returns, at each length, the pairs not of one step whose trigger
	// arrived within it.
	earned := func(shards int, newPolicy func(int) join.Policy, steps []Step) []int {
		rt, err := New(Config{Shards: shards, TotalCache: 64, Procs: procs, NewPolicy: newPolicy, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Shutdown()
		counts := make([]int, len(lengths))
		for lo := 0; lo < n; lo += batch {
			pairs, err := rt.IngestBatch(steps[lo : lo+batch])
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				if p.SameStep {
					continue
				}
				trig, _ := mergeKey(p)
				for i, l := range lengths {
					if trig < 2*uint64(l) {
						counts[i]++
					}
				}
			}
		}
		return counts
	}
	for _, pol := range []struct {
		name      string
		newPolicy func(int) join.Policy
	}{
		{"HEEB", nil},
		{"RAND", func(int) join.Policy { return &policy.Rand{} }},
	} {
		ratios := make([][]float64, len(lengths))
		for seed := uint64(1); seed <= 3; seed++ {
			rng := stats.NewRNG(seed)
			r, s := procs[0].Generate(rng.Split(), n), procs[1].Generate(rng.Split(), n)
			steps := make([]Step, n)
			for i := range steps {
				steps[i].R.Key, steps[i].S.Key = r[i], s[i]
			}
			one, four := earned(1, pol.newPolicy, steps), earned(4, pol.newPolicy, steps)
			for i := range lengths {
				ratios[i] = append(ratios[i], float64(four[i])/float64(one[i]))
			}
		}
		medians := make([]float64, len(lengths))
		for i, l := range lengths {
			slices.Sort(ratios[i])
			medians[i] = ratios[i][1]
			t.Logf("%s at %d steps: 4-shard ÷ 1-shard %.3f (seeds %s)", pol.name, l, medians[i], fmt.Sprint(ratios[i]))
			if medians[i] < 0.95 {
				t.Errorf("%s at %d steps: median 4-shard ÷ 1-shard yield %.3f, want >= 0.95", pol.name, l, medians[i])
			}
		}
		if spread := slices.Max(medians) - slices.Min(medians); spread > 0.03 {
			t.Errorf("%s: medians %v spread %.3f over the lengths, want <= 0.03", pol.name, medians, spread)
		}
	}
}
