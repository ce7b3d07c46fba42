package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"stochstream/internal/checkpoint"
	"stochstream/internal/flightrec"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
	"stochstream/internal/stats"
	"stochstream/internal/telemetry"
)

// ckptConfigs is the configuration grid the checkpoint differential tests
// run: the default model-free policy (RAND, private RNG state), the two
// policies whose state is the value counts no history keeps (PROB and LIFE),
// RESERVOIR (its RNG and its count of tuples seen), HEEB on a band join
// (incremental score state), the same with an adaptive α (which the lifetime
// tracker steers), and HEEB on a sliding window.
func ckptConfigs() []struct {
	name string
	mk   func() Config
} {
	return []struct {
		name string
		mk   func() Config
	}{
		{"equi-rand", func() Config {
			return Config{CacheSize: 8, Seed: 11}
		}},
		{"equi-prob", func() Config {
			return Config{CacheSize: 8, Seed: 11, Policy: &policy.Prob{}}
		}},
		{"equi-life", func() Config {
			life := &policy.Life{Lifetime: func(now int, tp join.Tuple) int { return 40 - (now - tp.Arrived) }}
			return Config{CacheSize: 8, Seed: 11, Policy: life}
		}},
		{"equi-reservoir", func() Config {
			return Config{CacheSize: 8, Seed: 11, Policy: &policy.Reservoir{}}
		}},
		{"band-heeb", func() Config {
			return Config{CacheSize: 8, Band: 2, Seed: 11, Procs: trendProcs(), Policy: policy.NewHEEB(heebOpts())}
		}},
		{"band-heeb-adaptive", func() Config {
			opts := heebOpts()
			opts.Adaptive = true
			return Config{CacheSize: 8, Band: 2, Seed: 11, Procs: trendProcs(), Policy: policy.NewHEEB(opts)}
		}},
		{"window-heeb", func() Config {
			return Config{CacheSize: 6, Window: 10, Seed: 11, Procs: trendProcs(), Policy: policy.NewHEEB(heebOpts())}
		}},
	}
}

// ckptTrace generates a deterministic stream trace with payloads and caller
// tags attached.
func ckptTrace(n int) (r, s []Tuple) {
	procs := trendProcs()
	rng := stats.NewRNG(909)
	rv := procs[0].Generate(rng.Split(), n)
	sv := procs[1].Generate(rng.Split(), n)
	r = make([]Tuple, n)
	s = make([]Tuple, n)
	for i := 0; i < n; i++ {
		r[i] = Tuple{Key: rv[i], Payload: i, Seq: uint64(3 * i)}
		s[i] = Tuple{Key: sv[i], Payload: -i - 1, Seq: uint64(3*i + 1)}
	}
	return r, s
}

func copyPairs(ps []Pair) []Pair { return append([]Pair(nil), ps...) }

// The tentpole differential test: an operator checkpointed at an arbitrary
// step and restored into a freshly built operator must replay the remaining
// trace byte-identically to the uninterrupted run — same pairs (payloads
// included), same cache snapshots, same metrics, and the same checkpoint at
// the end, so state no step has read yet (a lifetime tracker's count) must
// come back too. Per configuration class
// the cut point varies so the checkpoint lands on both calm and mid-churn
// states.
func TestCheckpointRestoreReplayIdentical(t *testing.T) {
	const n = 600
	r, s := ckptTrace(n)
	for _, tc := range ckptConfigs() {
		for _, cut := range []int{1, n / 3, n / 2} {
			t.Run(fmt.Sprintf("%s/cut%d", tc.name, cut), func(t *testing.T) {
				// Uninterrupted baseline.
				base, err := NewJoin(tc.mk())
				if err != nil {
					t.Fatal(err)
				}
				basePairs := make([][]Pair, n)
				for i := 0; i < n; i++ {
					basePairs[i] = copyPairs(base.Step(r[i], s[i]))
				}

				// Interrupted run: step to the cut, checkpoint.
				orig, err := NewJoin(tc.mk())
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < cut; i++ {
					orig.Step(r[i], s[i])
				}
				var buf bytes.Buffer
				if err := orig.Checkpoint(&buf); err != nil {
					t.Fatalf("Checkpoint at %d: %v", cut, err)
				}

				// Restore into a fresh operator and replay the tail.
				restored, err := NewJoin(tc.mk())
				if err != nil {
					t.Fatal(err)
				}
				if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatalf("Restore at %d: %v", cut, err)
				}
				if !snapshotsEqual(restored.Snapshot(), orig.Snapshot()) {
					t.Fatalf("cut %d: restored cache snapshot differs:\n  restored %v\n  original %v",
						cut, restored.Snapshot(), orig.Snapshot())
				}
				if rm, om := restored.Metrics(), orig.Metrics(); rm != om {
					t.Fatalf("cut %d: restored metrics differ:\n  restored %+v\n  original %+v", cut, rm, om)
				}
				if err := restored.CheckInvariants(); err != nil {
					t.Fatalf("cut %d: restored operator invariants: %v", cut, err)
				}
				for i := cut; i < n; i++ {
					got := restored.Step(r[i], s[i])
					if !pairsEqual(got, basePairs[i]) {
						t.Fatalf("cut %d: step %d pairs diverge after restore:\n  restored %v\n  baseline %v",
							cut, i, got, basePairs[i])
					}
				}
				if rm, bm := restored.Metrics(), base.Metrics(); rm != bm {
					t.Fatalf("cut %d: final metrics diverge:\n  restored %+v\n  baseline %+v", cut, rm, bm)
				}
				if !snapshotsEqual(restored.Snapshot(), base.Snapshot()) {
					t.Fatalf("cut %d: final caches diverge", cut)
				}
				if !bytes.Equal(checkpointOf(t, restored), checkpointOf(t, base)) {
					t.Fatalf("cut %d: final checkpoints diverge: the restore lost state no step showed", cut)
				}
			})
		}
	}
}

// A restored operator must also track the reference oracle — reusing the
// hot-path differential harness's strongest claim across the interruption.
func TestCheckpointRestoreTracksReference(t *testing.T) {
	const n, cut = 800, 311
	r, s := ckptTrace(n)
	mkCfg := func() Config {
		return Config{CacheSize: 10, Window: 14, Band: 1, Seed: 3, Procs: trendProcs(), Policy: policy.NewHEEB(heebOpts())}
	}
	ref, err := NewReferenceJoin(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewJoin(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := 0; i < cut; i++ {
		ref.Step(r[i], s[i])
		op.Step(r[i], s[i])
	}
	if err := op.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	op, err = NewJoin(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	for i := cut; i < n; i++ {
		pr := ref.Step(r[i], s[i])
		po := op.Step(r[i], s[i])
		if !pairsEqual(po, pr) {
			t.Fatalf("step %d: restored operator diverges from reference:\n  op  %v\n  ref %v", i, po, pr)
		}
	}
}

// steppedOperator builds an operator, advances it, and returns it with its
// checkpoint bytes — shared setup for the failure-path tests.
func steppedOperator(t *testing.T, steps int) (*Join, []byte) {
	t.Helper()
	r, s := ckptTrace(steps)
	j, err := NewJoin(Config{CacheSize: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		j.Step(r[i], s[i])
	}
	var buf bytes.Buffer
	if err := j.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return j, buf.Bytes()
}

// requireUntouched verifies a failed restore left the operator exactly as it
// was: same snapshot and metrics, and stepping it onward still matches a
// control operator that never saw the failed restore.
func requireUntouched(t *testing.T, j *Join, ckpt []byte) {
	t.Helper()
	control, err := NewJoin(Config{CacheSize: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := control.Restore(bytes.NewReader(ckpt)); err != nil {
		t.Fatalf("control restore: %v", err)
	}
	if !snapshotsEqual(j.Snapshot(), control.Snapshot()) {
		t.Fatalf("failed restore mutated the cache:\n  got  %v\n  want %v", j.Snapshot(), control.Snapshot())
	}
	if jm, cm := j.Metrics(), control.Metrics(); jm != cm {
		t.Fatalf("failed restore mutated metrics:\n  got  %+v\n  want %+v", jm, cm)
	}
	r, s := ckptTrace(140)
	for i := 100; i < 140; i++ {
		if !pairsEqual(j.Step(r[i], s[i]), control.Step(r[i], s[i])) {
			t.Fatalf("operator diverges from control at step %d after failed restore", i)
		}
	}
}

// Version skew and corruption must yield the typed envelope errors and leave
// the operator untouched — no partial restore.
func TestRestoreRejectsSkewAndCorruption(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"future-version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint32(c[4:8], checkpoint.Version+7)
			return c
		}, checkpoint.ErrUnsupportedVersion},
		{"bad-magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = '?'
			return c
		}, checkpoint.ErrBadMagic},
		{"corrupt-payload", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[20] ^= 0x55
			return c
		}, checkpoint.ErrChecksum},
		{"truncated", func(b []byte) []byte {
			return append([]byte(nil), b[:len(b)/2]...)
		}, checkpoint.ErrTruncated},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, ckpt := steppedOperator(t, 100)
			err := j.Restore(bytes.NewReader(tc.mutate(ckpt)))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
			requireUntouched(t, j, ckpt)
		})
	}
}

// A checkpoint only restores into an operator of the same configuration,
// field by field: every Config field has a row, and a field added without one
// fails the test. A row either changes a field the replay depends on and
// requires ErrConfigMismatch, or (observe) changes a wiring or observability
// field, restores under the other value and requires the run to continue as
// the uninterrupted one: the same pairs and the same final checkpoint.
func TestRestoreRejectsConfigMismatch(t *testing.T) {
	const n, cut = 300, 100
	r, s := ckptTrace(n)
	// base is HEEB on two linear trends of slope 1.
	base := func() Config { return Config{CacheSize: 8, Seed: 11, Procs: trendProcs()} }
	rows := []struct {
		name, field string
		edit        func(*Config)
		observe     bool
	}{
		{"cache-size", "CacheSize", func(c *Config) { c.CacheSize = 16 }, false},
		{"window", "Window", func(c *Config) { c.Window = 4 }, false},
		{"band", "Band", func(c *Config) { c.Band = 1 }, false},
		{"seed", "Seed", func(c *Config) { c.Seed = 12 }, false},
		{"policy", "Policy", func(c *Config) { c.Policy = &policy.Prob{} }, false},
		// The same forecasts from a model of another type.
		{"procs-type", "Procs", func(c *Config) {
			lt := c.Procs[0].(*process.LinearTrend)
			c.Procs[0] = &process.GeneralTrend{F: lt.TrendAt, Noise: lt.Noise}
		}, false},
		// The same model type, forecasting another trend.
		{"procs-slope", "Procs", func(c *Config) {
			for i, p := range c.Procs {
				lt := *p.(*process.LinearTrend)
				lt.Slope = 5
				c.Procs[i] = &lt
			}
		}, false},
		{"telemetry", "Telemetry", func(c *Config) { c.Telemetry = telemetry.NewRegistry() }, true},
		{"flight", "Flight", func(c *Config) { c.Flight = flightrec.New(flightrec.Options{}) }, true},
	}
	covered := map[string]bool{}
	for _, row := range rows {
		covered[row.field] = true
	}
	fields := reflect.TypeOf(Config{})
	for i := 0; i < fields.NumField(); i++ {
		if name := fields.Field(i).Name; !covered[name] {
			t.Errorf("Config.%s has no row: say whether a checkpoint may cross a change of it", name)
		}
		delete(covered, fields.Field(i).Name)
	}
	for name := range covered {
		t.Errorf("a row names Config.%s, which does not exist", name)
	}

	whole, err := NewJoin(base())
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]Pair, n)
	for i := range want {
		want[i] = copyPairs(whole.Step(r[i], s[i]))
	}
	orig, err := NewJoin(base())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cut; i++ {
		orig.Step(r[i], s[i])
	}
	ckpt := checkpointOf(t, orig)

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := base()
			row.edit(&cfg)
			j, err := NewJoin(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = j.Restore(bytes.NewReader(ckpt))
			if !row.observe {
				if !errors.Is(err, ErrConfigMismatch) {
					t.Fatalf("got %v, want ErrConfigMismatch", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("restore under another %s: %v", row.field, err)
			}
			pairs := 0
			for i := cut; i < n; i++ {
				got := j.Step(r[i], s[i])
				if !pairsEqual(got, want[i]) {
					t.Fatalf("step %d pairs diverge:\n  restored      %v\n  uninterrupted %v", i, got, want[i])
				}
				pairs += len(got)
			}
			if pairs == 0 {
				t.Fatal("no pairs after the cut: the comparison shows nothing")
			}
			if !bytes.Equal(checkpointOf(t, j), checkpointOf(t, whole)) {
				t.Fatal("final checkpoints differ between the restored and the uninterrupted run")
			}
		})
	}
}

// A payload that passes the checksum but encodes impossible operator state
// (here: a cache entry with an out-of-range ID) must still be rejected.
func TestRestoreRejectsInconsistentState(t *testing.T) {
	j, err := NewJoin(Config{CacheSize: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	j.Step(Tuple{Key: 1}, Tuple{Key: 2})
	var buf bytes.Buffer
	if err := j.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Forge an internally inconsistent checkpoint through the proper envelope
	// so only the semantic validation can catch it.
	j.nextID = 0 // makes every cached ID out of range on the wire
	var forged bytes.Buffer
	if err := j.Checkpoint(&forged); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewJoin(Config{CacheSize: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(bytes.NewReader(forged.Bytes())); err == nil {
		t.Fatal("restore accepted a checkpoint with IDs outside [0, nextID)")
	}
	if got := len(fresh.Snapshot()); got != 0 {
		t.Fatalf("failed restore left %d entries in a fresh operator", got)
	}
}

// The equi index keys its table by int32, so a cached key outside [MinKey,
// MaxKey] in a hand-edited file would alias another key (2^32 + k hashes as
// k) or pass for an empty cell (2^31 is NoValue modulo 2^32). Restore rejects
// such a file before anything is committed; a cached NoValue, which never
// joins and is never posted, still restores.
func TestRestoreRejectsKeysOutsideDomain(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(k int) int
	}{
		{"aliases-a-key", func(k int) int { return k + 1<<32 }},
		{"passes-for-empty", func(int) int { return 1 << 31 }},
		{"below-the-domain", func(int) int { return MinKey - 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, ckpt := steppedOperator(t, 100)
			wire := decodeWire(t, ckpt)
			e := &wire.Cache[3].Tuple
			e.Value = tc.edit(e.Value)
			err := j.Restore(bytes.NewReader(encodeWire(t, wire)))
			if err == nil || !strings.Contains(err.Error(), "invalid checkpoint state") || !strings.Contains(err.Error(), "outside") {
				t.Fatalf("got %v, want an invalid-state error naming the key domain", err)
			}
			requireUntouched(t, j, ckpt)
		})
	}
	t.Run("no-value", func(t *testing.T) {
		j, ckpt := steppedOperator(t, 100)
		wire := decodeWire(t, ckpt)
		wire.Cache[3].Tuple.Value = process.NoValue
		if err := j.Restore(bytes.NewReader(encodeWire(t, wire))); err != nil {
			t.Fatal(err)
		}
		if err := j.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// Checkpointing must not disturb the operator: a run with a mid-flight
// checkpoint produces exactly the pairs of a run without one.
func TestCheckpointIsSideEffectFree(t *testing.T) {
	const n = 300
	r, s := ckptTrace(n)
	mk := func() Config { return Config{CacheSize: 8, Seed: 11, Procs: trendProcs()} }
	a, err := NewJoin(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewJoin(mk())
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	for i := 0; i < n; i++ {
		pa := a.Step(r[i], s[i])
		if i%37 == 0 {
			sink.Reset()
			if err := b.Checkpoint(&sink); err != nil {
				t.Fatal(err)
			}
		}
		pb := b.Step(r[i], s[i])
		if !pairsEqual(pa, pb) {
			t.Fatalf("step %d: checkpointing perturbed the run", i)
		}
	}
}
