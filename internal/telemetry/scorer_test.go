package telemetry

import (
	"testing"

	"stochstream/internal/dist"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

func testProcs() [2]process.Process {
	return [2]process.Process{
		&process.LinearTrend{Slope: 1, Intercept: -1, Noise: dist.BoundedNormal(1, 10)},
		&process.LinearTrend{Slope: 1, Intercept: 0, Noise: dist.BoundedNormal(2, 15)},
	}
}

func testStreams(n int, seed uint64) ([]int, []int) {
	procs := testProcs()
	return procs[0].Generate(stats.NewRNG(seed), n), procs[1].Generate(stats.NewRNG(seed+1), n)
}

func TestFlowExpectScoreCandidates(t *testing.T) {
	var _ CandidateScorer = &policy.FlowExpect{}
	var _ CandidateScorer = &policy.HEEB{}

	fe := &policy.FlowExpect{Lookahead: 3}
	cfg := join.Config{CacheSize: 3, Warmup: 0, Procs: testProcs()}
	fe.Reset(cfg, stats.NewRNG(1))
	hists := [2]*process.History{process.NewHistory(), process.NewHistory()}
	r, s := testStreams(20, 13)
	for i := 0; i < 20; i++ {
		hists[0].Append(r[i])
		hists[1].Append(s[i])
	}
	st := &join.State{Time: 19, Hists: hists, Config: cfg}
	cands := []join.Tuple{
		{ID: 0, Value: r[19], Stream: 0, Arrived: 19},
		{ID: 1, Value: s[19], Stream: 1, Arrived: 19},
		{ID: 2, Value: -999, Stream: 0, Arrived: 10}, // impossible value
	}
	scores := fe.ScoreCandidates(st, cands)
	if len(scores) != 3 {
		t.Fatalf("scores = %v", scores)
	}
	if scores[2] != 0 {
		t.Fatalf("impossible value scored %g, want 0", scores[2])
	}
	for _, sc := range scores {
		if sc < 0 || sc > 3 {
			t.Fatalf("score %g outside [0, lookahead]", sc)
		}
	}
}
