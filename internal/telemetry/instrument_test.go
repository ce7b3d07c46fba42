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

func newHEEB() join.Policy {
	return policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: 3})
}

func TestInstrumentPolicyIdempotent(t *testing.T) {
	reg := NewRegistry()
	p := InstrumentPolicy(newHEEB(), reg)
	if InstrumentPolicy(p, reg) != p {
		t.Fatal("double wrapping must be a no-op")
	}
}

type eagerStub struct{ join.Policy }

func (eagerStub) EagerEvict() {}

func TestInstrumentPolicyPreservesEagerMarker(t *testing.T) {
	reg := NewRegistry()
	plain := InstrumentPolicy(newHEEB(), reg)
	if _, eager := plain.(join.EagerEvictor); eager {
		t.Fatal("plain policy must not gain the eager marker")
	}
	wrapped := InstrumentPolicy(eagerStub{newHEEB()}, reg)
	if _, eager := wrapped.(join.EagerEvictor); !eager {
		t.Fatal("eager marker lost by wrapping")
	}
	if InstrumentPolicy(wrapped, reg) != wrapped {
		t.Fatal("double wrapping of eager policy must be a no-op")
	}
}

func TestInstrumentedPolicyRecordsMetricsAndTrace(t *testing.T) {
	reg := NewRegistry()
	ip := &InstrumentedPolicy{Inner: newHEEB(), Reg: reg, TraceEvery: 1}
	r, s := testStreams(200, 3)
	res := join.Run(r, s, ip, join.Config{CacheSize: 5, Warmup: 0, Procs: testProcs()}, stats.NewRNG(1))
	if res.Evictions == 0 {
		t.Fatal("run produced no evictions; test is vacuous")
	}

	snap := reg.Snapshot()
	decisions := snap.Counters[`policy_decisions_total{policy="HEEB"}`]
	evictions := snap.Counters[`policy_evictions_total{policy="HEEB"}`]
	if decisions == 0 {
		t.Fatal("no decisions counted")
	}
	if int(evictions) != res.Evictions {
		t.Fatalf("evictions counter %d != simulator's %d", evictions, res.Evictions)
	}
	lat := snap.Histograms[`policy_evict_latency_ns{policy="HEEB"}`]
	if lat.Count != decisions {
		t.Fatalf("latency observations %d != decisions %d", lat.Count, decisions)
	}
	// TraceEvery=1: every decision recorded (up to ring capacity).
	if got := reg.Trace().Total(); got != uint64(decisions) {
		t.Fatalf("trace total %d != decisions %d", got, decisions)
	}
	recs := reg.Trace().Records()
	if len(recs) == 0 {
		t.Fatal("no trace records")
	}
	rec := recs[len(recs)-1]
	if rec.Policy != "HEEB" || rec.Need < 1 || len(rec.Candidates) == 0 {
		t.Fatalf("record = %+v", rec)
	}
	evicted, scored := 0, 0
	for _, c := range rec.Candidates {
		if c.Evicted {
			evicted++
		}
		if c.Score != 0 {
			scored++
		}
	}
	if evicted != rec.Need {
		t.Fatalf("record marks %d evicted, need %d", evicted, rec.Need)
	}
	if scored == 0 {
		t.Fatal("no candidate carries a HEEB score")
	}
	// Scoring latency was measured too.
	if snap.Histograms[`policy_score_latency_ns{policy="HEEB"}`].Count == 0 {
		t.Fatal("score latency not recorded")
	}
}

func TestTraceSampling(t *testing.T) {
	reg := NewRegistry()
	ip := &InstrumentedPolicy{Inner: newHEEB(), Reg: reg, TraceEvery: 10}
	r, s := testStreams(150, 5)
	join.Run(r, s, ip, join.Config{CacheSize: 4, Warmup: 0, Procs: testProcs()}, stats.NewRNG(1))
	decisions := reg.Snapshot().Counters[`policy_decisions_total{policy="HEEB"}`]
	want := (decisions + 9) / 10 // decisions 0, 10, 20, ... are recorded
	if got := reg.Trace().Total(); got != uint64(want) {
		t.Fatalf("trace total %d, want %d of %d decisions", got, want, decisions)
	}

	// Negative TraceEvery disables tracing entirely.
	reg2 := NewRegistry()
	ip2 := &InstrumentedPolicy{Inner: newHEEB(), Reg: reg2, TraceEvery: -1}
	join.Run(r, s, ip2, join.Config{CacheSize: 4, Warmup: 0, Procs: testProcs()}, stats.NewRNG(1))
	if got := reg2.Trace().Total(); got != 0 {
		t.Fatalf("disabled trace recorded %d", got)
	}
}

func TestJoinObserverInstrumentsRuns(t *testing.T) {
	reg := NewRegistry()
	join.SetObserver(NewJoinObserver(reg))
	defer join.SetObserver(nil)

	n := 120
	r, s := testStreams(n, 7)
	res := join.Run(r, s, newHEEB(), join.Config{CacheSize: 5, Warmup: 0, Procs: testProcs()}, stats.NewRNG(1))

	snap := reg.Snapshot()
	if got := snap.Counters["join_steps_total"]; got != int64(n) {
		t.Fatalf("steps = %d, want %d", got, n)
	}
	if got := snap.Counters["join_results_total"]; got != int64(res.TotalJoins) {
		t.Fatalf("results = %d, want %d", got, res.TotalJoins)
	}
	if got := snap.Counters["join_evictions_total"]; got != int64(res.Evictions) {
		t.Fatalf("evictions = %d, want %d", got, res.Evictions)
	}
	if got := snap.Histograms["join_step_latency_ns"].Count; got != int64(n) {
		t.Fatalf("step latency observations = %d, want %d", got, n)
	}
	// The observer wraps the policy, so labeled policy metrics appear too.
	if snap.Counters[`policy_decisions_total{policy="HEEB"}`] == 0 {
		t.Fatal("observer did not wrap the policy")
	}
}

func TestEnableDisableGlobal(t *testing.T) {
	reg := EnableGlobal()
	defer DisableGlobal()
	if reg != Default() {
		t.Fatal("EnableGlobal must return the default registry")
	}
	if !Enabled() {
		t.Fatal("EnableGlobal must flip the enabled flag")
	}
	before := reg.Snapshot().Counters["join_steps_total"]
	r, s := testStreams(50, 11)
	join.Run(r, s, newHEEB(), join.Config{CacheSize: 4, Warmup: 0, Procs: testProcs()}, stats.NewRNG(1))
	after := reg.Snapshot().Counters["join_steps_total"]
	if after-before != 50 {
		t.Fatalf("global observer counted %d steps, want 50", after-before)
	}
	// Solver gauges are registered (zero or more, but present).
	if _, ok := reg.Snapshot().Gauges["mincostflow_solves_total"]; !ok {
		t.Fatal("min-cost-flow gauges not registered")
	}

	DisableGlobal()
	if Enabled() {
		t.Fatal("DisableGlobal must clear the enabled flag")
	}
	mid := reg.Snapshot().Counters["join_steps_total"]
	join.Run(r, s, newHEEB(), join.Config{CacheSize: 4, Warmup: 0, Procs: testProcs()}, stats.NewRNG(1))
	if got := reg.Snapshot().Counters["join_steps_total"]; got != mid {
		t.Fatalf("observer still active after DisableGlobal (%d != %d)", got, mid)
	}
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
	st := &join.State{Time: 19, Hists: hists, Config: cfg, RNG: stats.NewRNG(2)}
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
