package policy

import (
	"testing"

	"stochstream/internal/core"
	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

func TestBandPROBSumsOverBand(t *testing.T) {
	p := &Prob{}
	st := &join.State{
		Time: 4,
		Hists: [2]*process.History{
			process.NewHistory(10, 11, 12, 20, 21), // R history
			process.NewHistory(0, 0, 0, 0, 0),
		},
		Config: join.Config{CacheSize: 2, Band: 1},
	}
	p.Reset(st.Config, stats.NewRNG(1))
	observe(p, []int{10, 11, 12, 20, 21}, []int{0, 0, 0, 0, 0})
	// S tuple with value 11: band {10,11,12} covers 3/5 of R history.
	// S tuple with value 20: band {19,20,21} covers 2/5.
	cands := []join.Tuple{
		{ID: 0, Value: 11, Stream: core.StreamS},
		{ID: 1, Value: 20, Stream: core.StreamS},
	}
	got := p.Evict(st, cands, 1)
	if got[0] != 1 {
		t.Fatalf("PROB evicted %d, want the narrower-band tuple (1)", got[0])
	}
}
