package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
	"stochstream/internal/telemetry"
)

// TestStepBatchEquivalence pins StepBatch to a loop of Step calls: identical
// pairs, snapshots and metrics for every batch size, across the same config
// matrix the differential harness uses. This is the contract that lets the
// sharded runtime drive shards through StepBatch while the per-shard
// ReferenceJoin differential still speaks plain Step.
func TestStepBatchEquivalence(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"equi", Config{CacheSize: 16, Procs: trendProcs(), Policy: policy.NewHEEB(heebOpts()), Seed: 7}},
		{"band", Config{CacheSize: 12, Band: 3, Procs: trendProcs(), Policy: policy.NewHEEB(heebOpts()), Seed: 7}},
		{"window", Config{CacheSize: 16, Window: 9, Procs: trendProcs(), Policy: policy.NewHEEB(heebOpts()), Seed: 7}},
		{"rand", Config{CacheSize: 8, Seed: 3}},
	}
	for _, tc := range cases {
		for _, batchSize := range []int{1, 2, 7, 64} {
			t.Run(fmt.Sprintf("%s/batch%d", tc.name, batchSize), func(t *testing.T) {
				stepped, err := NewJoin(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				batched, err := NewJoin(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				const steps = 1200
				rng := stats.NewRNG(11)
				r := streamFor(tc.cfg, 0, rng.Split(), steps)
				s := streamFor(tc.cfg, 1, rng.Split(), steps)
				for lo := 0; lo < steps; lo += batchSize {
					hi := lo + batchSize
					if hi > steps {
						hi = steps
					}
					batch := make([]TuplePair, 0, hi-lo)
					var want []Pair
					for i := lo; i < hi; i++ {
						rt := Tuple{Key: r[i], Payload: i, Seq: uint64(2 * i)}
						st := Tuple{Key: s[i], Payload: ^i, Seq: uint64(2*i + 1)}
						batch = append(batch, TuplePair{R: rt, S: st})
						want = append(want, copyPairs(stepped.Step(rt, st))...)
					}
					got := batched.StepBatch(batch)
					if !pairSlicesEqual(got, want) {
						t.Fatalf("batch [%d,%d): pairs diverged\n got %v\nwant %v", lo, hi, got, want)
					}
				}
				if sm, bm := stepped.Metrics(), batched.Metrics(); sm != bm {
					t.Fatalf("metrics diverged: stepped %+v batched %+v", sm, bm)
				}
				ss, bs := stepped.Snapshot(), batched.Snapshot()
				if len(ss) != len(bs) {
					t.Fatalf("snapshot lengths diverged: %d vs %d", len(ss), len(bs))
				}
				for i := range ss {
					if ss[i] != bs[i] {
						t.Fatalf("snapshot[%d] diverged: %+v vs %+v", i, ss[i], bs[i])
					}
				}
			})
		}
	}
}

// streamFor generates arrivals: model-driven when the config carries procs,
// uniform small-domain keys (with NoValue sprinkled in) otherwise.
func streamFor(cfg Config, side int, rng *stats.RNG, n int) []int {
	if cfg.Procs[side] != nil {
		return cfg.Procs[side].Generate(rng, n)
	}
	out := make([]int, n)
	for i := range out {
		if rng.IntN(17) == 0 {
			out[i] = process.NoValue
			continue
		}
		out[i] = rng.IntN(25)
	}
	return out
}

func pairSlicesEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStepBatchEmpty pins the trivial cases: nil and empty batches step
// nothing and touch no counters.
func TestStepBatchEmpty(t *testing.T) {
	reg := telemetry.NewRegistry()
	j, err := NewJoin(Config{CacheSize: 4, Seed: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if out := j.StepBatch(nil); len(out) != 0 {
		t.Fatalf("nil batch emitted %d pairs", len(out))
	}
	if out := j.StepBatch([]TuplePair{}); len(out) != 0 {
		t.Fatalf("empty batch emitted %d pairs", len(out))
	}
	if m := j.Metrics(); m.Steps != 0 {
		t.Fatalf("empty batches stepped: %+v", m)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if strings.Contains(buf.String(), "engine_steps_total 1") {
		t.Fatal("empty batch bumped the steps counter")
	}
}

// TestStepBatchTelemetry pins the documented batched-telemetry semantics:
// counters advance by the batch totals, and the latency histogram records
// one observation per batch, not per step.
func TestStepBatchTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	j, err := NewJoin(Config{CacheSize: 4, Seed: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]TuplePair, 10)
	for i := range batch {
		batch[i] = TuplePair{R: Tuple{Key: i}, S: Tuple{Key: i}}
	}
	j.StepBatch(batch)
	snap := reg.Snapshot()
	if got := snap.Counters["engine_steps_total"]; got != 10 {
		t.Fatalf("engine_steps_total = %d, want 10", got)
	}
	latObs := snap.Histograms["engine_step_latency_ns"].Count
	if latObs != 1 {
		t.Fatalf("latency histogram saw %d observations, want 1 per batch", latObs)
	}
}

// TestResize pins the in-place budget change: shrinking evicts down with the
// policy immediately (so the budget invariant holds for CheckInvariants and
// checkpoints), growing defers to the next step, and the post-resize run is
// byte-identical to an oracle resized at the same step.
func TestResize(t *testing.T) {
	cfg := Config{CacheSize: 20, Procs: trendProcs(), Policy: policy.NewHEEB(heebOpts()), Seed: 5}
	refCfg := cfg
	refCfg.Policy = policy.NewHEEB(heebOpts())
	j, err := NewJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReferenceJoin(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 400
	rng := stats.NewRNG(3)
	r := cfg.Procs[0].Generate(rng.Split(), steps)
	s := cfg.Procs[1].Generate(rng.Split(), steps)
	resizeAt := map[int]int{100: 9, 200: 14, 300: 5}
	for i := 0; i < steps; i++ {
		if n, ok := resizeAt[i]; ok {
			if err := j.Resize(n); err != nil {
				t.Fatal(err)
			}
			if err := ref.Resize(n); err != nil {
				t.Fatal(err)
			}
			if got := len(j.Snapshot()); got > n {
				t.Fatalf("step %d: cache %d exceeds resized budget %d", i, got, n)
			}
			if err := j.CheckInvariants(); err != nil {
				t.Fatalf("step %d: invariants after Resize(%d): %v", i, n, err)
			}
		}
		got := j.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
		want := ref.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
		if !pairSlicesEqual(got, want) {
			t.Fatalf("step %d: pairs diverged from resized oracle", i)
		}
	}
	if jm, rm := j.Metrics(), ref.Metrics(); jm != rm {
		t.Fatalf("metrics diverged: engine %+v oracle %+v", jm, rm)
	}
}

// TestResizeCheckpointFingerprint: a checkpoint taken after Resize restores
// into an operator built at the new size (the sharded manifest path), and
// not into one built at the old size.
func TestResizeCheckpointFingerprint(t *testing.T) {
	cfg := Config{CacheSize: 12, Procs: trendProcs(), Policy: policy.NewHEEB(heebOpts()), Seed: 5}
	j, err := NewJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(4)
	r := cfg.Procs[0].Generate(rng.Split(), 50)
	s := cfg.Procs[1].Generate(rng.Split(), 50)
	for i := 0; i < 50; i++ {
		j.Step(Tuple{Key: r[i]}, Tuple{Key: s[i]})
	}
	if err := j.Resize(7); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := j.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	mk := func(size int) *Join {
		c := cfg
		c.Policy = policy.NewHEEB(heebOpts())
		c.CacheSize = size
		jj, err := NewJoin(c)
		if err != nil {
			t.Fatal(err)
		}
		return jj
	}
	if err := mk(12).Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore into the pre-resize budget should fail the fingerprint")
	}
	fresh := mk(12)
	if err := fresh.Resize(7); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("restore into resized operator: %v", err)
	}
}

// TestResizeRejectsBadSize: budgets below one are refused without mutating
// the operator.
func TestResizeRejectsBadSize(t *testing.T) {
	j, err := NewJoin(Config{CacheSize: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	j.Step(Tuple{Key: 1}, Tuple{Key: 2})
	if err := j.Resize(0); err == nil {
		t.Fatal("Resize(0) should fail")
	}
	if err := j.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := j.Metrics().CacheLen; got != 2 {
		t.Fatalf("failed resize mutated the cache: len %d", got)
	}
}
