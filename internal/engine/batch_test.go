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
// sharded runtime drive shards in batches while the per-shard ReferenceJoin
// differential still speaks plain Step. StepRun is held to the same loop
// through its numbering (checkNumbered), batch by batch.
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
				numbered, err := NewJoin(tc.cfg)
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
					checkNumbered(t, fmt.Sprintf("batch [%d,%d)", lo, hi), numbered.StepRun(batch), want)
				}
				if sm, bm, nm := stepped.Metrics(), batched.Metrics(), numbered.Metrics(); sm != bm || sm != nm {
					t.Fatalf("metrics diverged: stepped %+v batched %+v numbered %+v", sm, bm, nm)
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
