package process

import (
	"testing"

	"stochstream/internal/dist"
	"stochstream/internal/stats"
)

// BenchmarkGenerate generates one benchmark ledger input (bench/workloads.go)
// an op: trend is the two ROOF-style linear trends of 271 616 steps each,
// their noise bounded normals (σ 13.2 at ±40, σ 20 at ±60); walk is the
// WALK model's two streams of 67 968 steps, restarted every 128 steps. The
// metric ns/draw divides by the values generated.
func BenchmarkGenerate(b *testing.B) {
	trend := [2]Process{
		&LinearTrend{Slope: 1, Intercept: -1, Noise: dist.BoundedNormal(13.2, 40)},
		&LinearTrend{Slope: 1, Intercept: 0, Noise: dist.BoundedNormal(20, 60)},
	}
	walk := &GaussianWalk{Sigma: 1}
	for _, c := range []struct {
		name    string
		procs   [2]Process
		n, runs int
	}{
		{"trend", trend, 271616, 1},
		{"walk", [2]Process{walk, walk}, 128, 531},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := stats.NewRNG(7)
				for r := 0; r < c.runs; r++ {
					c.procs[0].Generate(rng.Split(), c.n)
					c.procs[1].Generate(rng.Split(), c.n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*c.n*c.runs), "ns/draw")
		})
	}
}
