package engine

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"stochstream/internal/flightrec"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/stats"
	"stochstream/internal/telemetry"
)

// flightJoin builds an operator with a logical-clock flight recorder that
// tracks every key, so tests can assert exact span and lifecycle content.
func flightJoin(t *testing.T, cfg Config, opts flightrec.Options) (*Join, *flightrec.Recorder) {
	t.Helper()
	opts.Clock = flightrec.LogicalClock()
	if opts.SampleEvery == 0 {
		opts.SampleEvery = 1
	}
	rec := flightrec.New(opts)
	cfg.Flight = rec
	j, err := NewJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return j, rec
}

func spansForStep(spans []flightrec.Span, step int) map[flightrec.Phase][]flightrec.Span {
	by := map[flightrec.Phase][]flightrec.Span{}
	for _, s := range spans {
		if s.Step == step {
			by[s.Phase] = append(by[s.Phase], s)
		}
	}
	return by
}

func TestFlightStepSpans(t *testing.T) {
	// Lfixed evicts oldest-first, so the cache contents at every step are
	// known exactly: after step 1 it holds the step-1 arrivals (keys 2, 3).
	j, rec := flightJoin(t, Config{CacheSize: 2, Window: 2, Policy: &policy.Lfixed{}},
		flightrec.Options{})
	// Three steps: the first fills the cache, the rest each force a
	// replacement decision (score + evict phases).
	j.Step(Tuple{Key: 1}, Tuple{Key: 1})
	j.Step(Tuple{Key: 2}, Tuple{Key: 3})
	j.Step(Tuple{Key: 5}, Tuple{Key: 2})

	spans := rec.Spans()
	s0 := spansForStep(spans, 0)
	for _, ph := range []flightrec.Phase{flightrec.PhaseStep, flightrec.PhaseExpire, flightrec.PhaseProbe, flightrec.PhaseEmit} {
		if len(s0[ph]) != 1 {
			t.Fatalf("step 0 recorded %d %v spans, want 1 (have %v)", len(s0[ph]), ph, s0)
		}
	}
	if len(s0[flightrec.PhaseScore]) != 0 || len(s0[flightrec.PhaseEvict]) != 0 {
		t.Fatalf("step 0 under budget recorded decision phases: %v", s0)
	}
	root := s0[flightrec.PhaseStep][0]
	for _, ph := range []flightrec.Phase{flightrec.PhaseExpire, flightrec.PhaseProbe, flightrec.PhaseEmit} {
		if sp := s0[ph][0]; sp.Parent != root.ID {
			t.Fatalf("%v span parent = %d, want step root %d", ph, sp.Parent, root.ID)
		}
		if sp := s0[ph][0]; sp.Begin < root.Begin || sp.End > root.End {
			t.Fatalf("%v span [%d,%d] outside step root [%d,%d]", ph, sp.Begin, sp.End, root.Begin, root.End)
		}
	}
	// Step 0's arrivals match (keys 1 and 1): the emit span records it.
	if emit := s0[flightrec.PhaseEmit][0]; emit.Keys != 1 || emit.Detail != 1 {
		t.Fatalf("step 0 emit span = %+v, want 1 pair with same-time detail", emit)
	}

	s2 := spansForStep(spans, 2)
	if len(s2[flightrec.PhaseScore]) != 1 || len(s2[flightrec.PhaseEvict]) != 1 {
		t.Fatalf("overflowing step 2 missing decision phases: %v", s2)
	}
	if sc := s2[flightrec.PhaseScore][0]; sc.Keys != 4 || sc.Detail != 2 {
		t.Fatalf("score span = %+v, want 4 candidates / 2 needed", sc)
	}
	// Step 2's S arrival (key 2) probes the cached R entry with key 2.
	if pr := s2[flightrec.PhaseProbe][0]; pr.Keys != 1 {
		t.Fatalf("probe span = %+v, want 1 hit", pr)
	}
}

func TestFlightExpireSpanAndLifecycle(t *testing.T) {
	j, rec := flightJoin(t, Config{CacheSize: 8, Window: 1}, flightrec.Options{})
	j.Step(Tuple{Key: 10}, Tuple{Key: 20})
	j.Step(Tuple{Key: 11}, Tuple{Key: 21})
	// Step 2: the step-0 arrivals (age 2 > window 1) expire.
	j.Step(Tuple{Key: 12}, Tuple{Key: 22})

	s2 := spansForStep(rec.Spans(), 2)
	if exp := s2[flightrec.PhaseExpire][0]; exp.Keys != 2 {
		t.Fatalf("expire span = %+v, want 2 pruned", exp)
	}
	evs := rec.Lifecycle(10)
	if len(evs) != 3 || evs[0].Kind != flightrec.LifeIngest ||
		evs[1].Kind != flightrec.LifeAdmit || evs[2].Kind != flightrec.LifeExpire {
		t.Fatalf("key 10 lifecycle = %+v, want ingest, admit, expire", evs)
	}
	if evs[2].Step != 2 || evs[2].Stream != "R" || evs[2].TupleID != 0 {
		t.Fatalf("expire event = %+v", evs[2])
	}
}

func TestFlightLifecycleMatchAdmitEvict(t *testing.T) {
	j, rec := flightJoin(t, Config{CacheSize: 2}, flightrec.Options{})
	j.Step(Tuple{Key: 5}, Tuple{Key: 6}) // fills the cache
	j.Step(Tuple{Key: 7}, Tuple{Key: 5}) // S arrival 5 matches cached R 5; eviction needed
	evs := rec.Lifecycle(5)
	// Expected for key 5: ingest (R, step 0), admit (step 0), match at step 1
	// (cached R 5 against arrival S 5), ingest (S, step 1), then whatever the
	// policy decided for the new arrival (admit or evict).
	if len(evs) < 5 {
		t.Fatalf("key 5 lifecycle has %d events: %+v", len(evs), evs)
	}
	kinds := make([]flightrec.LifeKind, len(evs))
	for i, e := range evs {
		kinds[i] = e.Kind
	}
	if kinds[0] != flightrec.LifeIngest || kinds[1] != flightrec.LifeAdmit {
		t.Fatalf("key 5 starts %v, want ingest, admit", kinds[:2])
	}
	var match *flightrec.LifeEvent
	for i := range evs {
		if evs[i].Kind == flightrec.LifeMatch {
			match = &evs[i]
		}
	}
	if match == nil || match.Step != 1 || match.Partner != 5 || match.TupleID != 0 {
		t.Fatalf("key 5 match event = %+v", match)
	}
	last := evs[len(evs)-1]
	if last.Kind != flightrec.LifeAdmit && last.Kind != flightrec.LifeEvict {
		t.Fatalf("key 5 ends with %v, want a replacement outcome", last.Kind)
	}
}

func TestFlightLifecycleSampling(t *testing.T) {
	// With a real sampling rate, untracked keys record nothing; tracked keys
	// are exactly the recorder's Sampled set.
	j, rec := flightJoin(t, Config{CacheSize: 64}, flightrec.Options{SampleEvery: 16, SampleSeed: 3})
	for k := 0; k < 128; k += 2 {
		j.Step(Tuple{Key: k}, Tuple{Key: k + 1})
	}
	for k := 0; k < 128; k++ {
		got := rec.Lifecycle(k) != nil
		if got != rec.Sampled(k) {
			t.Fatalf("key %d tracked=%v, Sampled=%v", k, got, rec.Sampled(k))
		}
	}
}

// failingRung always reports a solver failure, driving the ladder down a rung
// on every decision.
type failingRung struct{}

func (failingRung) Name() string                               { return "FAILRUNG" }
func (failingRung) Reset(join.Config, *stats.RNG)              {}
func (failingRung) Evict(*join.State, []join.Tuple, int) []int { panic("unreachable: TryEvict used") }
func (failingRung) TryEvict(*join.State, []join.Tuple, int) ([]int, error) {
	return nil, policy.ErrSolverFailed
}

func TestFlightRungSpansAndDowngradeBundle(t *testing.T) {
	dir := t.TempDir()
	lad := &policy.Ladder{Rungs: []join.Policy{failingRung{}, &policy.Lfixed{}}}
	j, rec := flightJoin(t, Config{CacheSize: 2, Policy: lad, Seed: 9},
		flightrec.Options{BundleDir: dir})

	j.Step(Tuple{Key: 1}, Tuple{Key: 2})
	j.Step(Tuple{Key: 3}, Tuple{Key: 4}) // overflow → decision → downgrade → bundle

	// The failed rung and the rung that decided both have spans under step 1.
	s1 := spansForStep(rec.Spans(), 1)
	rungs := s1[flightrec.PhaseRung]
	if len(rungs) != 2 {
		t.Fatalf("step 1 recorded %d rung spans, want 2: %+v", len(rungs), rungs)
	}
	if rungs[0].Label != "FAILRUNG" || rungs[0].Err != "solver-failed" {
		t.Fatalf("failed rung span = %+v", rungs[0])
	}
	if rungs[1].Label != "LFIXED" || rungs[1].Err != "" {
		t.Fatalf("deciding rung span = %+v", rungs[1])
	}

	// The downgrade dumped exactly one bundle, after the step completed, so
	// its checkpoint equals a checkpoint taken now.
	entries, err := filepath.Glob(filepath.Join(dir, "bundle-*"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("bundles = %v (err %v), want exactly 1", entries, err)
	}
	b, err := flightrec.LoadBundle(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Reason != "downgrade" || b.Manifest.Step != 1 {
		t.Fatalf("manifest = %+v, want downgrade at step 1", b.Manifest)
	}
	var now bytes.Buffer
	if err := j.Checkpoint(&now); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Checkpoint, now.Bytes()) {
		t.Fatal("bundle checkpoint differs from the operator's post-step state")
	}
}

func TestFlightPanicBundle(t *testing.T) {
	dir := t.TempDir()
	j, _ := flightJoin(t, Config{CacheSize: 2, Policy: &panicPolicy{after: 0}},
		flightrec.Options{BundleDir: dir})
	if _, err := j.StepChecked(Tuple{Key: 1}, Tuple{Key: 2}); err != nil {
		t.Fatalf("first step fits the cache without a decision: %v", err)
	}
	_, err := j.StepChecked(Tuple{Key: 3}, Tuple{Key: 4})
	if !errors.Is(err, ErrStepFailed) {
		t.Fatalf("err = %v, want ErrStepFailed", err)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "bundle-*"))
	if len(entries) != 1 {
		t.Fatalf("bundles = %v, want exactly 1", entries)
	}
	b, err := flightrec.LoadBundle(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Reason != "panic" {
		t.Fatalf("manifest reason = %q, want panic", b.Manifest.Reason)
	}
}

func TestFlightInvariantBundle(t *testing.T) {
	dir := t.TempDir()
	j, _ := flightJoin(t, Config{CacheSize: 4}, flightrec.Options{BundleDir: dir})
	j.Step(Tuple{Key: 1}, Tuple{Key: 2})
	// Corrupt the cache: an ID from the future violates the invariant walk.
	j.cache[0].ID = 99
	if err := j.CheckInvariants(); !errors.Is(err, ErrInvariant) {
		t.Fatalf("err = %v, want ErrInvariant", err)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "bundle-*"))
	if len(entries) != 1 {
		t.Fatalf("bundles = %v, want exactly 1", entries)
	}
	b, err := flightrec.LoadBundle(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Reason != "invariant" {
		t.Fatalf("manifest reason = %q, want invariant", b.Manifest.Reason)
	}
}

func TestFlightBundleRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	cfg := Config{CacheSize: 4, Window: 8, Seed: 17, Telemetry: reg}
	j, _ := flightJoin(t, cfg, flightrec.Options{BundleDir: dir})
	step := func(op *Join, t0, n int) []Pair {
		var all []Pair
		for i := t0; i < t0+n; i++ {
			all = append(all, append([]Pair(nil), op.Step(Tuple{Key: i % 5}, Tuple{Key: (i + 1) % 5})...)...)
		}
		return all
	}
	step(j, 0, 20)
	bdir, err := j.DumpBundle("signal")
	if err != nil {
		t.Fatal(err)
	}
	b, err := flightrec.LoadBundle(bdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"telemetry.json", "downgrades.json", "checkpoint.sscp"} {
		if _, err := os.Stat(filepath.Join(bdir, f)); err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
	}

	// Restore the bundle's checkpoint into a fresh operator; both must
	// produce identical pairs on the continuation.
	fresh, _ := flightJoin(t, Config{CacheSize: 4, Window: 8, Seed: 17}, flightrec.Options{})
	if err := fresh.Restore(bytes.NewReader(b.Checkpoint)); err != nil {
		t.Fatal(err)
	}
	want := step(j, 20, 15)
	got := step(fresh, 20, 15)
	if len(want) != len(got) {
		t.Fatalf("continuations diverge: %d vs %d pairs", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("pair %d: %+v vs %+v", i, want[i], got[i])
		}
	}
}

func TestFlightSolverSpans(t *testing.T) {
	lad := policy.NewDefaultLadder(3, 200, policy.HEEBOptions{LifetimeEstimate: 4})
	j, rec := flightJoin(t, Config{CacheSize: 4, Procs: trendProcs(), Policy: lad, Seed: 11},
		flightrec.Options{})
	un := flightrec.AttachSolver(rec)
	defer un()
	rng := stats.NewRNG(33)
	rs, ss := rng.Split(), rng.Split()
	for i := 0; i < 32; i++ {
		j.Step(Tuple{Key: trendKey(rs, i, 0)}, Tuple{Key: trendKey(ss, i, 1)})
	}
	solves := 0
	for _, s := range rec.Spans() {
		if s.Phase == flightrec.PhaseSolve {
			solves++
			if s.Label != "ssp" && s.Label != "cost-scaling" {
				t.Fatalf("solve span label = %q", s.Label)
			}
			if s.Parent == 0 {
				t.Fatalf("solve span has no parent: %+v", s)
			}
		}
	}
	if solves == 0 {
		t.Fatal("FlowExpect decisions recorded no solver spans")
	}
}

// trendKey draws a deterministic key stream for the solver-span test.
func trendKey(rng *stats.RNG, i, side int) int {
	return 2 + side + i%7 + rng.IntN(5)
}
