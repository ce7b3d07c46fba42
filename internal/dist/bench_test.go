package dist

import (
	"math/rand/v2"
	"testing"
)

// BenchmarkTableSample draws from the trend ledger's two noise tables
// (bench/workloads.go: σ 13.2 bounded at 40 for R, σ 20 bounded at 60 for S),
// one draw an op, over a fixed ring of uniform variates so the generator's
// cost stays out. The index, 32 guide buckets per entry (10.4 KB and
// 15.5 KB for the two tables), is built before the timer starts.
func BenchmarkTableSample(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	us := make([]float64, 4096)
	for i := range us {
		us[i] = rng.Float64()
	}
	for _, c := range []struct {
		name  string
		sigma float64
		bound int
	}{{"r", 13.2, 40}, {"s", 20, 60}} {
		b.Run(c.name, func(b *testing.B) {
			tab := BoundedNormal(c.sigma, c.bound)
			tab.Sample(0.5)
			var sink int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += tab.Sample(us[i&(len(us)-1)])
			}
			if sink == 1 {
				b.Log(sink)
			}
		})
	}
}
