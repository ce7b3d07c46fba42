package faultinject

import (
	"errors"
	"slices"
	"testing"

	"stochstream/internal/dist"
	"stochstream/internal/engine"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
	"stochstream/internal/telemetry"
)

func chaosProcs() [2]process.Process {
	noise := dist.BoundedNormal(3, 9)
	return [2]process.Process{
		&process.LinearTrend{Slope: 1, Noise: noise},
		&process.LinearTrend{Slope: 1, Intercept: -2, Noise: noise},
	}
}

// chaosPolicy is HEEB, the policy the benchmark's model-driven workloads
// serve.
func chaosPolicy() *policy.HEEB {
	return policy.NewHEEB(policy.HEEBOptions{LifetimeEstimate: 4})
}

type chaosResult struct {
	metrics   engine.Metrics
	counts    Counts
	rejected  int
	evictions int64
}

// runChaos drives a HEEB operator through steps faulted arrivals, asserting
// the fault-tolerance contract at every step.
func runChaos(t *testing.T, plan Plan, steps int) chaosResult {
	t.Helper()
	procs := chaosProcs()
	rng := stats.NewRNG(4242)
	r := procs[0].Generate(rng.Split(), steps)
	s := procs[1].Generate(rng.Split(), steps)

	cfg := engine.Config{CacheSize: 8, Window: 16, Procs: procs, Policy: chaosPolicy(), Seed: 7}
	// The reference operator replays every accepted step with its own HEEB:
	// faulted input must not make the operator leave the oracle.
	ref, err := engine.NewReferenceJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cfg.Policy, cfg.Telemetry = chaosPolicy(), reg
	j, err := engine.NewJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj := New(plan)

	rejected := 0
	for i := 0; i < steps; i++ {
		rk, sk := inj.Next(r[i], s[i])
		out, err := j.StepChecked(engine.Tuple{Key: rk}, engine.Tuple{Key: sk})
		if err != nil {
			// The only error a faulted operator may return is a clean
			// bad-tuple rejection; anything else (in particular ErrStepFailed
			// from a panic) breaks the contract.
			if !errors.Is(err, engine.ErrBadTuple) {
				t.Fatalf("step %d: %v", i, err)
			}
			rejected++
		} else if want := ref.Step(engine.Tuple{Key: rk}, engine.Tuple{Key: sk}); !slices.Equal(out, want) {
			t.Fatalf("step %d: operator emitted %v, reference %v", i, out, want)
		}
		if err := j.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}

	// Every eviction the operator made is one the instrumented policy
	// answered: a rejected step reached no decision.
	m := j.Metrics()
	evictions := reg.Counter(`policy_evictions_total{policy="HEEB"}`).Value()
	if evictions != int64(m.Evictions) {
		t.Fatalf("policy counted %d evictions, operator %d", evictions, m.Evictions)
	}
	return chaosResult{metrics: m, counts: inj.Counts(), rejected: rejected, evictions: evictions}
}

// The chaos differential test: 5k faulted steps against HEEB. No panics,
// invariants hold throughout, every fault class is injected, and
// out-of-domain corruption is cleanly rejected.
func TestChaos5k(t *testing.T) {
	res := runChaos(t, DefaultPlan(99), 5000)
	if c := res.counts; c.Dups == 0 || c.Drops == 0 || c.Delays == 0 || c.CorruptInDomain == 0 || c.CorruptOutOfDomain == 0 {
		t.Fatalf("a fault class went unexercised: %+v", c)
	}
	if res.rejected == 0 {
		t.Fatal("out-of-domain keys were injected but none were rejected")
	}
	if res.rejected > 2*res.counts.CorruptOutOfDomain {
		t.Fatalf("%d rejections for %d out-of-domain corruptions (both streams can be hit at once)",
			res.rejected, res.counts.CorruptOutOfDomain)
	}
	if res.metrics.Steps != 5000-res.rejected {
		t.Fatalf("steps %d + rejected %d != 5000", res.metrics.Steps, res.rejected)
	}
	if res.metrics.Evictions == 0 {
		t.Fatal("the campaign reached no replacement decision")
	}
}

// A seeded plan is a reproducible bug report: two identical campaigns give
// identical metrics, injection counts and rejections.
func TestChaosDeterministic(t *testing.T) {
	a := runChaos(t, DefaultPlan(7), 1500)
	b := runChaos(t, DefaultPlan(7), 1500)
	if a != b {
		t.Fatalf("chaos runs with the same seed diverge:\n  a %+v\n  b %+v", a, b)
	}
}

// The zero plan is a no-op: nothing injected, nothing rejected.
func TestChaosZeroPlanIsClean(t *testing.T) {
	res := runChaos(t, Plan{}, 1500)
	if res.counts != (Counts{}) {
		t.Fatalf("zero plan injected faults: %+v", res.counts)
	}
	if res.rejected != 0 {
		t.Fatalf("zero plan rejected %d steps", res.rejected)
	}
}

func TestInjectorDelayPreservesDeliveryEventually(t *testing.T) {
	inj := New(Plan{Seed: 1, DelayProb: 1})
	// With DelayProb 1 every arrival is held: the first step delivers the
	// sentinel, later steps deliver the previous held key.
	r0, _ := inj.Next(10, 20)
	if r0 != process.NoValue {
		t.Fatalf("first delayed delivery = %d, want NoValue", r0)
	}
	r1, _ := inj.Next(11, 21)
	if r1 != 10 {
		t.Fatalf("second delivery = %d, want the held 10", r1)
	}
}
