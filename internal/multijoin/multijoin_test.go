package multijoin

import (
	"math"
	"slices"
	"testing"

	"stochstream/internal/core"
	"stochstream/internal/dist"
	"stochstream/internal/engine"
	"stochstream/internal/join"
	"stochstream/internal/process"
	"stochstream/internal/stats"
)

func twoStreamConfig(cache int) Config {
	return Config{
		Procs: []process.Process{
			&process.LinearTrend{Slope: 1, Intercept: -1, Noise: dist.BoundedNormal(1, 10)},
			&process.LinearTrend{Slope: 1, Intercept: 0, Noise: dist.BoundedNormal(2, 15)},
		},
		Edges:     []Edge{{A: 0, B: 1}},
		CacheSize: cache,
		Warmup:    -1,
	}
}

// fifo evicts oldest first, deterministically, in both simulators.
type fifo struct{}

func (fifo) Name() string             { return "fifo" }
func (fifo) Reset(Config, *stats.RNG) {}
func (fifo) Evict(_ *State, cands []Tuple, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

type binFifo struct{}

func (binFifo) Name() string                  { return "fifo" }
func (binFifo) Reset(join.Config, *stats.RNG) {}
func (binFifo) Evict(_ *join.State, cands []join.Tuple, n int) []int {
	out := make([]int, len(cands))
	for i := range out {
		out[i] = i
	}
	slices.SortFunc(out, func(a, b int) int { return cands[a].ID - cands[b].ID })
	return out[:n]
}

// With two streams and one edge, the multi-join simulator must agree exactly
// with the binary join simulator under the same deterministic policy.
func TestTwoStreamReducesToBinaryJoin(t *testing.T) {
	cfg := twoStreamConfig(8)
	rng := stats.NewRNG(3)
	r := cfg.Procs[0].Generate(rng.Split(), 800)
	s := cfg.Procs[1].Generate(rng.Split(), 800)

	multi, err := Run([][]int{r, s}, fifo{}, cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	binCfg := join.Config{CacheSize: 8, Warmup: -1}
	bin := engine.Run(r, s, binFifo{}, binCfg, stats.NewRNG(1))
	if multi.TotalJoins != bin.TotalJoins || multi.Joins != bin.Joins {
		t.Fatalf("multi (%d/%d) != binary (%d/%d)", multi.TotalJoins, multi.Joins, bin.TotalJoins, bin.Joins)
	}
	if multi.PerEdge[0] != multi.Joins {
		t.Fatalf("per-edge accounting broken: %v vs %d", multi.PerEdge, multi.Joins)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := twoStreamConfig(4)
	rng := stats.NewRNG(1)
	r := cfg.Procs[0].Generate(rng.Split(), 10)
	s := cfg.Procs[1].Generate(rng.Split(), 10)

	bad := cfg
	bad.Edges = []Edge{{A: 0, B: 5}}
	if _, err := Run([][]int{r, s}, fifo{}, bad, stats.NewRNG(1)); err == nil {
		t.Fatal("out-of-range edge should error")
	}
	bad.Edges = []Edge{{A: 1, B: 1}}
	if _, err := Run([][]int{r, s}, fifo{}, bad, stats.NewRNG(1)); err == nil {
		t.Fatal("self-join should error")
	}
	bad.Edges = []Edge{{A: 0, B: 1}, {B: 0, A: 1}}
	if _, err := Run([][]int{r, s}, fifo{}, bad, stats.NewRNG(1)); err == nil {
		t.Fatal("duplicate edge should error")
	}
	bad = cfg
	bad.CacheSize = 0
	if _, err := Run([][]int{r, s}, fifo{}, bad, stats.NewRNG(1)); err == nil {
		t.Fatal("cache 0 should error")
	}
	if _, err := Run([][]int{r}, fifo{}, cfg, stats.NewRNG(1)); err == nil {
		t.Fatal("stream count mismatch should error")
	}
	if _, err := Run([][]int{r, s[:5]}, fifo{}, cfg, stats.NewRNG(1)); err == nil {
		t.Fatal("length mismatch should error")
	}
}

// Star topology: stream 0 joins both 1 and 2. Its tuples earn benefit from
// two partners, so HEEB should hold more stream-0 tuples than RAND does.
func starConfig(cache int) Config {
	mk := func(intercept int) process.Process {
		return &process.LinearTrend{Slope: 1, Intercept: intercept, Noise: dist.BoundedNormal(2, 12)}
	}
	return Config{
		Procs:     []process.Process{mk(0), mk(0), mk(0)},
		Edges:     []Edge{{A: 0, B: 1}, {A: 0, B: 2}},
		CacheSize: cache,
		Warmup:    -1,
	}
}

func TestStarTopologyHEEBFavorsHub(t *testing.T) {
	cfg := starConfig(9)
	rng := stats.NewRNG(5)
	streams := make([][]int, 3)
	for s := range streams {
		streams[s] = cfg.Procs[s].Generate(rng.Split(), 2500)
	}
	heeb, err := Run(streams, &HEEB{Alpha: stats.AlphaForLifetime(4)}, cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	rand, err := Run(streams, &Rand{}, cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if heeb.Joins <= rand.Joins {
		t.Fatalf("HEEB %d <= RAND %d on star topology", heeb.Joins, rand.Joins)
	}
	// The hub stream participates in both edges, so HEEB allocates it more
	// cache than either spoke.
	if !(heeb.Occupancy[0] > heeb.Occupancy[1]) || !(heeb.Occupancy[0] > heeb.Occupancy[2]) {
		t.Fatalf("hub not favored: occupancy %v", heeb.Occupancy)
	}
	// RAND has no such preference: its occupancy is near-uniform.
	if math.Abs(rand.Occupancy[0]-1.0/3) > 0.08 {
		t.Fatalf("RAND occupancy skewed: %v", rand.Occupancy)
	}
}

// The appendix's scoring rule: a hub tuple's score equals the sum of its
// per-partner binary scores.
func TestHEEBScoreIsSumOverPartners(t *testing.T) {
	cfg := starConfig(5)
	h := &HEEB{Alpha: 4}
	h.Reset(cfg, stats.NewRNG(1))
	partners, err := cfg.partners()
	if err != nil {
		t.Fatal(err)
	}
	hists := []*process.History{
		process.NewHistory(make([]int, 51)...),
		process.NewHistory(make([]int, 51)...),
		process.NewHistory(make([]int, 51)...),
	}
	st := &State{Time: 50, Hists: hists, Config: cfg, Partners: partners}
	tp := Tuple{Value: 52, Stream: 0, Arrived: 50}
	got := h.Score(st, tp)
	l := core.LExp{Alpha: 4}
	want := core.JoinH(cfg.Procs[1], hists[1], 52, l, 1000) +
		core.JoinH(cfg.Procs[2], hists[2], 52, l, 1000)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("score %v != sum of partner scores %v", got, want)
	}
	// A spoke tuple only earns from the hub.
	spoke := Tuple{Value: 52, Stream: 1, Arrived: 50}
	gotSpoke := h.Score(st, spoke)
	wantSpoke := core.JoinH(cfg.Procs[0], hists[0], 52, l, 1000)
	if math.Abs(gotSpoke-wantSpoke) > 1e-12 {
		t.Fatalf("spoke score %v != %v", gotSpoke, wantSpoke)
	}
	if got <= gotSpoke {
		t.Fatal("hub tuple should outscore spoke tuple at the same value")
	}
}

func TestChainTopologyPerEdgeCounts(t *testing.T) {
	// 0—1—2 chain: middle stream joins both ends.
	mk := func() process.Process {
		return &process.Stationary{P: dist.NewUniform(0, 4)}
	}
	cfg := Config{
		Procs:     []process.Process{mk(), mk(), mk()},
		Edges:     []Edge{{A: 0, B: 1}, {A: 1, B: 2}},
		CacheSize: 6,
		Warmup:    0,
	}
	rng := stats.NewRNG(7)
	streams := make([][]int, 3)
	for s := range streams {
		streams[s] = cfg.Procs[s].Generate(rng.Split(), 1500)
	}
	res, err := Run(streams, &HEEB{}, cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins != res.PerEdge[0]+res.PerEdge[1] {
		t.Fatalf("per-edge sums %v != total %d", res.PerEdge, res.Joins)
	}
	if res.PerEdge[0] == 0 || res.PerEdge[1] == 0 {
		t.Fatalf("an edge produced nothing: %v", res.PerEdge)
	}
}

func TestMultiProbRunsAndScoresSensibly(t *testing.T) {
	cfg := twoStreamConfig(6)
	rng := stats.NewRNG(4)
	r := cfg.Procs[0].Generate(rng.Split(), 1200)
	s := cfg.Procs[1].Generate(rng.Split(), 1200)
	prob, err := Run([][]int{r, s}, &Prob{}, cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	heeb, err := Run([][]int{r, s}, &HEEB{Alpha: stats.AlphaForLifetime(3)}, cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	// Trend pathology: PROB discards fresh arrivals, HEEB must win.
	if heeb.Joins <= prob.Joins {
		t.Fatalf("HEEB %d <= PROB %d under a trend", heeb.Joins, prob.Joins)
	}
}

func TestInvalidEvictionsRejected(t *testing.T) {
	cfg := twoStreamConfig(2)
	rng := stats.NewRNG(1)
	r := cfg.Procs[0].Generate(rng.Split(), 20)
	s := cfg.Procs[1].Generate(rng.Split(), 20)
	if _, err := Run([][]int{r, s}, badPolicy{}, cfg, stats.NewRNG(1)); err == nil {
		t.Fatal("invalid eviction set should error")
	}
}

type badPolicy struct{}

func (badPolicy) Name() string                     { return "bad" }
func (badPolicy) Reset(Config, *stats.RNG)         {}
func (badPolicy) Evict(*State, []Tuple, int) []int { return nil }
