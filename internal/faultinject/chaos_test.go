package faultinject

import (
	"errors"
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

func chaosLadder() *policy.Ladder {
	// A small solver budget on top of injected failures, so both the
	// budget-exhaustion and injected-failure downgrade paths fire.
	return policy.NewDefaultLadder(3, 200, policy.HEEBOptions{LifetimeEstimate: 4})
}

type chaosResult struct {
	metrics    engine.Metrics
	counts     Counts
	rejected   int
	fallbacks  []uint64
	downgrades uint64
}

// runChaos drives an operator with the full degradation ladder through steps
// faulted arrivals, asserting the fault-tolerance contract at every step.
func runChaos(t *testing.T, plan Plan, steps int) chaosResult {
	t.Helper()
	procs := chaosProcs()
	rng := stats.NewRNG(4242)
	r := procs[0].Generate(rng.Split(), steps)
	s := procs[1].Generate(rng.Split(), steps)

	reg := telemetry.NewRegistry()
	lad := chaosLadder()
	j, err := engine.NewJoin(engine.Config{
		CacheSize: 8,
		Window:    16,
		Procs:     procs,
		Policy:    lad,
		Seed:      7,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := New(plan)
	defer inj.InstallSolverHook()()

	rejected := 0
	for i := 0; i < steps; i++ {
		rk, sk := inj.Next(r[i], s[i])
		_, err := j.StepChecked(engine.Tuple{Key: rk}, engine.Tuple{Key: sk})
		if err != nil {
			// The only error a faulted-but-ladder-protected operator may
			// return is a clean bad-tuple rejection; anything else (in
			// particular ErrStepFailed from a panic) breaks the contract.
			if !errors.Is(err, engine.ErrBadTuple) {
				t.Fatalf("step %d: %v", i, err)
			}
			rejected++
		}
		if err := j.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}

	names, fallbacks, ok := j.FallbackCounts()
	if !ok {
		t.Fatal("ladder policy did not report fallback counts")
	}
	// Degradation happens only along the documented ladder: every downgrade
	// record names adjacent rungs, in order.
	recs := reg.Downgrades().Records()
	for _, rec := range recs {
		idx := -1
		for k, n := range names {
			if n == rec.From {
				idx = k
				break
			}
		}
		if idx < 0 || idx+1 >= len(names) || names[idx+1] != rec.To {
			t.Fatalf("downgrade outside the documented ladder: %+v (rungs %v)", rec, names)
		}
	}
	// Every downgrade is visible in telemetry: per-edge counters sum to the
	// ladder's own fallback total.
	var counterTotal, ladderTotal uint64
	for i := 0; i+1 < len(names); i++ {
		c := reg.Counter(`ladder_fallback_total{from="` + names[i] + `",to="` + names[i+1] + `"}`)
		counterTotal += uint64(c.Value())
	}
	for i := range names {
		ladderTotal += fallbacks[i]
	}
	if counterTotal != ladderTotal {
		t.Fatalf("telemetry counters saw %d downgrades, ladder counted %d", counterTotal, ladderTotal)
	}
	if reg.Downgrades().Total() != ladderTotal {
		t.Fatalf("downgrade trace saw %d records, ladder counted %d", reg.Downgrades().Total(), ladderTotal)
	}
	return chaosResult{
		metrics:    j.Metrics(),
		counts:     inj.Counts(),
		rejected:   rejected,
		fallbacks:  fallbacks,
		downgrades: ladderTotal,
	}
}

// The chaos differential test of ISSUE 4: 5k faulted steps against the full
// ladder. No panics, invariants hold throughout, out-of-domain corruption is
// cleanly rejected, and the injected solver failures surface as ladder
// downgrades — every one visible in telemetry.
func TestChaos5k(t *testing.T) {
	res := runChaos(t, DefaultPlan(99), 5000)
	if res.counts.SolverFailures == 0 {
		t.Fatal("plan injected no solver failures; the downgrade path went unexercised")
	}
	if res.fallbacks[0] == 0 {
		t.Fatal("no FlowExpect downgrades despite injected solver failures")
	}
	if res.counts.CorruptOutOfDomain > 0 && res.rejected == 0 {
		t.Fatal("out-of-domain keys were injected but none were rejected")
	}
	if res.rejected > 2*res.counts.CorruptOutOfDomain {
		t.Fatalf("%d rejections for %d out-of-domain corruptions (both streams can be hit at once)",
			res.rejected, res.counts.CorruptOutOfDomain)
	}
	if res.metrics.Steps != 5000-res.rejected {
		t.Fatalf("steps %d + rejected %d != 5000", res.metrics.Steps, res.rejected)
	}
}

// A seeded plan is a reproducible bug report: two identical campaigns give
// identical metrics, injection counts and downgrade totals.
func TestChaosDeterministic(t *testing.T) {
	a := runChaos(t, DefaultPlan(7), 1500)
	b := runChaos(t, DefaultPlan(7), 1500)
	if a.metrics != b.metrics || a.counts != b.counts || a.rejected != b.rejected || a.downgrades != b.downgrades {
		t.Fatalf("chaos runs with the same seed diverge:\n  a %+v\n  b %+v", a, b)
	}
}

// The zero plan is a no-op: nothing injected, nothing rejected, and — with
// the solver under a generous budget and healthy models — no downgrades.
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
