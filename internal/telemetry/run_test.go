package telemetry_test

import (
	"testing"

	"stochstream/internal/dist"
	"stochstream/internal/engine"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
	"stochstream/internal/telemetry"
)

// These tests drive whole simulations through engine.Run, which imports this
// package, so they live in the external test package.

func runProcs() [2]process.Process {
	return [2]process.Process{
		&process.LinearTrend{Slope: 1, Intercept: -1, Noise: dist.BoundedNormal(1, 10)},
		&process.LinearTrend{Slope: 1, Intercept: 0, Noise: dist.BoundedNormal(2, 15)},
	}
}

func runStreams(n int, seed uint64) ([]int, []int) {
	procs := runProcs()
	return procs[0].Generate(stats.NewRNG(seed), n), procs[1].Generate(stats.NewRNG(seed+1), n)
}

func runHEEB() join.Policy {
	return policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: 3})
}

// stepTrend steps a fresh operator over n steps of the trend streams with
// reg as its registry and returns it.
func stepTrend(t *testing.T, reg *telemetry.Registry, pol join.Policy, cache, n int, seed uint64) *engine.Join {
	t.Helper()
	j, err := engine.NewJoin(engine.Config{CacheSize: cache, Procs: runProcs(), Policy: pol, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	r, s := runStreams(n, seed)
	for i := range r {
		j.Step(engine.Tuple{Key: r[i]}, engine.Tuple{Key: s[i]})
	}
	return j
}

// The operator counts its policy's decisions and victims and traces sampled
// decisions with HEEB's per-candidate scores.
func TestOperatorRecordsPolicyMetricsAndTrace(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := stepTrend(t, reg, runHEEB(), 5, 600, 3).Metrics()
	if m.Evictions == 0 {
		t.Fatal("run produced no evictions; test is vacuous")
	}

	snap := reg.Snapshot()
	decisions := snap.Counters[`policy_decisions_total{policy="HEEB"}`]
	evictions := snap.Counters[`policy_evictions_total{policy="HEEB"}`]
	if decisions == 0 {
		t.Fatal("no decisions counted")
	}
	if int(evictions) != m.Evictions {
		t.Fatalf("evictions counter %d != operator's %d", evictions, m.Evictions)
	}
	recs := reg.Trace().Records()
	if len(recs) < 2 {
		t.Fatalf("%d trace records of %d decisions", len(recs), decisions)
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
	for _, name := range []string{"policy_evict_latency_ns", "policy_score_latency_ns"} {
		if _, ok := snap.Histograms[name+`{policy="HEEB"}`]; ok {
			t.Fatalf("%s is exported; the score span is the one per-decision timer", name)
		}
	}
}

// One decision in telemetry.TraceInterval is traced, and a policy that cannot
// score its candidates is counted but never traced.
func TestTraceSampling(t *testing.T) {
	reg := telemetry.NewRegistry()
	stepTrend(t, reg, runHEEB(), 4, 600, 5)
	decisions := reg.Snapshot().Counters[`policy_decisions_total{policy="HEEB"}`]
	want := (decisions + telemetry.TraceInterval - 1) / telemetry.TraceInterval // decisions 1, 65, 129, ...
	if got := reg.Trace().Total(); got != uint64(want) || want < 2 {
		t.Fatalf("trace total %d, want %d of %d decisions", got, want, decisions)
	}

	// Without models the operator serves RAND, which has no scorer.
	reg2 := telemetry.NewRegistry()
	j, err := engine.NewJoin(engine.Config{CacheSize: 4, Telemetry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	r, s := runStreams(600, 5)
	for i := range r {
		j.Step(engine.Tuple{Key: r[i]}, engine.Tuple{Key: s[i]})
	}
	if reg2.Snapshot().Counters[`policy_decisions_total{policy="RAND"}`] == 0 {
		t.Fatal("RAND's decisions were not counted")
	}
	if got := reg2.Trace().Total(); got != 0 {
		t.Fatalf("a policy without a scorer was traced %d times", got)
	}
}

// A registry handed to one operator instruments only that operator: the
// engine_* families (one step-latency observation a step, every pair, every
// eviction the policy chose) and the policy_* families of its policy.
func TestJoinObserverInstrumentsRuns(t *testing.T) {
	reg := telemetry.NewRegistry()
	j, err := engine.NewJoin(engine.Config{CacheSize: 5, Procs: runProcs(), Policy: runHEEB(), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	n := 120
	r, s := runStreams(n, 7)
	for i := range r {
		j.Step(engine.Tuple{Key: r[i]}, engine.Tuple{Key: s[i]})
	}
	m := j.Metrics()
	if m.Evictions == 0 {
		t.Fatal("run produced no evictions; test is vacuous")
	}

	snap := reg.Snapshot()
	if got := snap.Counters["engine_steps_total"]; got != int64(n) {
		t.Fatalf("steps = %d, want %d", got, n)
	}
	if got := snap.Counters["engine_pairs_total"]; got != int64(m.Pairs) {
		t.Fatalf("pairs = %d, want %d", got, m.Pairs)
	}
	if got := snap.Counters["engine_evictions_total"]; got != int64(m.Evictions) {
		t.Fatalf("evictions = %d, want %d", got, m.Evictions)
	}
	if got := snap.Histograms["engine_step_latency_ns"].Count; got != int64(n) {
		t.Fatalf("step latency observations = %d, want %d", got, n)
	}
	if snap.Counters[`policy_decisions_total{policy="HEEB"}`] == 0 {
		t.Fatal("the operator did not count its policy's decisions")
	}
	if telemetry.Global() != nil {
		t.Fatal("a private registry must not install the global one")
	}
}

// EnableGlobal makes every simulation report into the default registry: the
// operator's engine_* families, whose pair count is the run's joins and its
// same-time pairs, and the policy_* families of its policy.
// DisableGlobal stops that.
func TestEnableDisableGlobal(t *testing.T) {
	reg := telemetry.EnableGlobal()
	defer telemetry.DisableGlobal()
	if reg != telemetry.Default() || telemetry.Global() != reg {
		t.Fatal("EnableGlobal must install and return the default registry")
	}
	counter := func(name string) int64 { return reg.Snapshot().Counters[name] }
	steps, pairs, evictions := counter("engine_steps_total"), counter("engine_pairs_total"), counter("engine_evictions_total")
	decisions := counter(`policy_decisions_total{policy="HEEB"}`)

	n := 120
	r, s := runStreams(n, 7)
	res := engine.Run(r, s, runHEEB(), join.Config{CacheSize: 5, Warmup: 0, Procs: runProcs()}, stats.NewRNG(1))
	sameTime := 0
	for i := range r {
		if r[i] == s[i] {
			sameTime++
		}
	}
	if got := counter("engine_steps_total") - steps; got != int64(n) {
		t.Fatalf("steps = %d, want %d", got, n)
	}
	if got := counter("engine_pairs_total") - pairs; got != int64(res.TotalJoins+sameTime) {
		t.Fatalf("pairs = %d, want %d joins and %d same-time pairs", got, res.TotalJoins, sameTime)
	}
	if got := counter("engine_evictions_total") - evictions; got != int64(res.Evictions) {
		t.Fatalf("evictions = %d, want %d", got, res.Evictions)
	}
	if counter(`policy_decisions_total{policy="HEEB"}`) == decisions {
		t.Fatal("the operator did not count its policy's decisions")
	}
	// Solver gauges are registered (zero or more, but present).
	if _, ok := reg.Snapshot().Gauges["mincostflow_solves_total"]; !ok {
		t.Fatal("min-cost-flow gauges not registered")
	}

	telemetry.DisableGlobal()
	if telemetry.Global() != nil {
		t.Fatal("DisableGlobal left a registry installed")
	}
	mid := counter("engine_steps_total")
	engine.Run(r, s, runHEEB(), join.Config{CacheSize: 4, Warmup: 0, Procs: runProcs()}, stats.NewRNG(1))
	if got := counter("engine_steps_total"); got != mid {
		t.Fatalf("runs still reported after DisableGlobal (%d != %d)", got, mid)
	}
}
