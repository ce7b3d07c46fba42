package dist_test

import (
	"testing"

	"stochstream/internal/core"
	"stochstream/internal/dist"
	"stochstream/internal/engine"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
	"stochstream/internal/workload"
)

// TestForecastTablesHoldNoCDF: a policy reads forecasts through Prob and
// DenseOf and never samples them, so after HEEB has decided evictions on
// WALK and ROOF no table the operator's models hold — WALK's memoized
// increments, ROOF's noise — carries sampling sums. The streams come from a
// second instance of the workload, as a served client's do.
func TestForecastTablesHoldNoCDF(t *testing.T) {
	for name, build := range map[string]func() workload.JoinWorkload{
		"WALK": workload.Walk,
		"ROOF": func() workload.JoinWorkload { return workload.Roof().Join() },
	} {
		t.Run(name, func(t *testing.T) {
			const n = 600
			r, s := build().Generate(stats.NewRNG(4), n)
			procs := build().Procs
			heeb := policy.NewHEEB(policy.HEEBOptions{})
			j, err := engine.NewJoin(engine.Config{CacheSize: 8, Procs: procs, Policy: heeb, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				j.Step(engine.Tuple{Key: r[i]}, engine.Tuple{Key: s[i]})
			}
			fc := heeb.Forecasts()
			var tables []*dist.Table
			for st, p := range procs {
				switch m := p.(type) {
				case *process.GaussianWalk:
					for d := 1; d <= fc.Len(core.StreamID(st)); d++ {
						tables = append(tables, m.Increment(d).(*dist.Table))
					}
				case *process.LinearTrend:
					tables = append(tables, m.Noise.(*dist.Table))
				default:
					t.Fatalf("unexpected model %T", p)
				}
			}
			if fc.Len(core.StreamR)+fc.Len(core.StreamS) == 0 {
				t.Fatal("HEEB scored nothing")
			}
			for i, tab := range tables {
				if dist.Sampled(tab) {
					t.Fatalf("table %d of %d holds sampling sums after %d scored steps", i, len(tables), n)
				}
			}
		})
	}
}
