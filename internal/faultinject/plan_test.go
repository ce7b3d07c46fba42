// Package faultinject is a test-only harness: it perturbs operator inputs
// under a seeded, fully deterministic fault plan, so its chaos tests can
// assert the engine's fault-tolerance contract: no panics, out-of-domain
// keys rejected cleanly, and invariants intact after every step.
//
// Faults model what a streaming deployment actually sees: duplicated
// arrivals (at-least-once transport replays a tuple), dropped arrivals (the
// paper's "−" tuples), out-of-order delivery (a tuple held back one or more
// steps) and corrupted join keys (including values outside the supported
// domain, which StepChecked must reject).
//
// Everything is driven by one stats.RNG seeded from the plan, so a chaos run
// replays identically — a failing seed is a reproducible bug report.
package faultinject

import (
	"math"

	"stochstream/internal/process"
	"stochstream/internal/stats"
)

// Plan is a seeded fault campaign: per-arrival fault probabilities, applied
// independently to each stream at each step. Probabilities are in [0, 1];
// the zero Plan injects nothing.
type Plan struct {
	Seed uint64
	// DupProb replaces an arrival's key with the previous key seen on the
	// same stream (a transport-level duplicate).
	DupProb float64
	// DropProb replaces an arrival with the NoValue sentinel (a lost tuple;
	// the synchronized-step model still advances).
	DropProb float64
	// DelayProb holds the arrival back and delivers the previously held one
	// in its place (out-of-order delivery with reordering distance ≥ 1).
	DelayProb float64
	// CorruptProb replaces the key with a corrupted value; half the
	// corruptions stay inside the supported key domain (extreme but legal),
	// half fall outside it (StepChecked must reject those cleanly).
	CorruptProb float64
}

// DefaultPlan is a moderately hostile campaign used by the CI chaos smoke:
// every fault class is exercised, none dominates.
func DefaultPlan(seed uint64) Plan {
	return Plan{
		Seed:        seed,
		DupProb:     0.02,
		DropProb:    0.02,
		DelayProb:   0.02,
		CorruptProb: 0.01,
	}
}

// Counts reports how many faults of each class an Injector has injected.
type Counts struct {
	Dups, Drops, Delays int
	// CorruptInDomain are corruptions to extreme-but-legal keys;
	// CorruptOutOfDomain are keys outside [engine.MinKey, engine.MaxKey].
	CorruptInDomain, CorruptOutOfDomain int
}

// Injector applies a Plan to a stream of synchronized arrivals.
// Not safe for concurrent use.
type Injector struct {
	plan    Plan
	rng     *stats.RNG
	prev    [2]int
	held    [2]int
	hasHeld [2]bool
	counts  Counts
}

// New returns an injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{
		plan: plan,
		rng:  stats.NewRNG(plan.Seed),
		prev: [2]int{process.NoValue, process.NoValue},
	}
}

// Next transforms one synchronized step of arrivals under the plan.
func (in *Injector) Next(r, s int) (int, int) {
	return in.one(0, r), in.one(1, s)
}

func (in *Injector) one(side, key int) int {
	out := key
	switch u := in.rng.Float64(); {
	case u < in.plan.DupProb:
		out = in.prev[side]
		in.counts.Dups++
	case u < in.plan.DupProb+in.plan.DropProb:
		out = process.NoValue
		in.counts.Drops++
	case u < in.plan.DupProb+in.plan.DropProb+in.plan.DelayProb:
		if in.hasHeld[side] {
			out, in.held[side] = in.held[side], key
		} else {
			in.held[side], in.hasHeld[side] = key, true
			out = process.NoValue // nothing to deliver yet this step
		}
		in.counts.Delays++
	case u < in.plan.DupProb+in.plan.DropProb+in.plan.DelayProb+in.plan.CorruptProb:
		out = in.corrupt()
	}
	in.prev[side] = key
	return out
}

// corrupt picks a corrupted key: alternately an extreme-but-legal value and
// one outside the supported domain.
func (in *Injector) corrupt() int {
	legal := []int{math.MaxInt32, math.MinInt32 + 1, 0, -1}
	illegal := []int{math.MaxInt64, math.MinInt64, math.MaxInt32 + 1, math.MinInt32 - 1}
	if in.rng.Float64() < 0.5 {
		in.counts.CorruptInDomain++
		return legal[in.rng.IntN(len(legal))]
	}
	in.counts.CorruptOutOfDomain++
	return illegal[in.rng.IntN(len(illegal))]
}

// Counts returns the per-class injection counters so far.
func (in *Injector) Counts() Counts { return in.counts }
