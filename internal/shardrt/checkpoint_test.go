package shardrt

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"stochstream/internal/checkpoint"
	"stochstream/internal/engine"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/process"
)

// TestShardedCheckpointReplay is the fault-tolerance gate for the sharded
// runtime: run a multi-shard stream to completion, then rerun it with a
// checkpoint/restore in the middle (into a freshly built runtime), and
// require the interrupted run's full output and final state to be
// byte-identical to the uninterrupted one. The cut point leaves every shard's
// clock behind the global step, so the restored clocks are at stake.
func TestShardedCheckpointReplay(t *testing.T) {
	cfg := Config{Shards: 4, TotalCache: 48, Procs: trendProcs(), Seed: 21}
	steps := genSteps(77, 1200)
	const batchSize = 53 // does not divide the stream
	const cut = 7        // checkpoint after this many batches

	// Uninterrupted run.
	base, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := ingestAll(t, base, steps, batchSize)
	wantMetrics := base.Metrics()
	if _, err := base.Close(); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: ingest cut batches, checkpoint, discard the runtime,
	// restore into a fresh one, continue from the same stream position.
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var gotPairs []Pair
	pos := 0
	for b := 0; b < cut; b++ {
		hi := pos + batchSize
		if hi > len(steps) {
			hi = len(steps)
		}
		pairs, err := first.IngestBatch(steps[pos:hi])
		if err != nil {
			t.Fatal(err)
		}
		gotPairs = append(gotPairs, copyShardPairs(pairs)...)
		pos = hi
	}
	var ckpt bytes.Buffer
	if err := first.Checkpoint(&ckpt); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := second.CheckInvariants(); err != nil {
		t.Fatalf("invariants after restore: %v", err)
	}
	for lo := pos; lo < len(steps); lo += batchSize {
		hi := lo + batchSize
		if hi > len(steps) {
			hi = len(steps)
		}
		pairs, err := second.IngestBatch(steps[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		gotPairs = append(gotPairs, copyShardPairs(pairs)...)
	}
	tail, err := second.Flush()
	if err != nil {
		t.Fatal(err)
	}
	gotPairs = append(gotPairs, tail...)
	gotMetrics := second.Metrics()
	if _, err := second.Close(); err != nil {
		t.Fatal(err)
	}

	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("interrupted run emitted %d pairs, uninterrupted %d", len(gotPairs), len(wantPairs))
	}
	for i := range gotPairs {
		if gotPairs[i] != wantPairs[i] {
			t.Fatalf("pair %d diverged after restore: %+v vs %+v", i, gotPairs[i], wantPairs[i])
		}
	}
	if gotMetrics.Ingested != wantMetrics.Ingested || gotMetrics.Pairs != wantMetrics.Pairs ||
		gotMetrics.Batches != wantMetrics.Batches {
		t.Fatalf("runtime metrics diverged:\n  got  %+v\n  want %+v", gotMetrics, wantMetrics)
	}
	for i := range wantMetrics.Shards {
		if gotMetrics.Shards[i] != wantMetrics.Shards[i] {
			t.Fatalf("shard %d metrics diverged:\n  got  %+v\n  want %+v", i, gotMetrics.Shards[i], wantMetrics.Shards[i])
		}
	}
}

func copyShardPairs(pairs []Pair) []Pair {
	return append([]Pair(nil), pairs...)
}

// TestShardedCheckpointFingerprint: a manifest only restores into a runtime
// of the same configuration, field by field. Every Config field has a row,
// and a field added without one fails the test. A row either changes a field
// the replay depends on and requires ErrConfigMismatch — from validateManifest
// itself, before any shard is touched, for the fields the manifest records,
// and from the shard envelopes for the models and the policy — or (observe)
// changes a wiring or observability field, restores under the other value
// and requires the run to continue as the uninterrupted one: the same pairs
// and the same final checkpoint.
func TestShardedCheckpointFingerprint(t *testing.T) {
	base := func() Config { return Config{Shards: 2, TotalCache: 16, Procs: trendProcs(), Seed: 4} }
	type where int
	const (
		manifest where = iota
		envelopes
		observe
	)
	rows := []struct {
		name, field string
		edit        func(*Config)
		where       where
	}{
		{"shards", "Shards", func(c *Config) { c.Shards = 4 }, manifest},
		{"cache", "TotalCache", func(c *Config) { c.TotalCache = 20 }, manifest},
		{"window", "Window", func(c *Config) { c.Window = 8 }, manifest},
		{"seed", "Seed", func(c *Config) { c.Seed = 5 }, manifest},
		{"procs", "Procs", func(c *Config) {
			for i, p := range c.Procs {
				lt := *p.(*process.LinearTrend)
				lt.Slope = 5
				c.Procs[i] = &lt
			}
		}, envelopes},
		{"policy", "NewPolicy", func(c *Config) { c.NewPolicy = func(int) join.Policy { return &policy.Prob{} } }, envelopes},
		{"telemetry", "Telemetry", func(c *Config) { c.Telemetry = true }, observe},
		{"flight", "Flight", func(c *Config) { c.Flight = true }, observe},
		{"flight-dir", "FlightDir", func(c *Config) { c.FlightDir = t.TempDir() }, observe},
		{"flight-sample-every", "FlightSampleEvery", func(c *Config) { c.Flight, c.FlightSampleEvery = true, 3 }, observe},
	}
	covered := map[string]bool{}
	for _, row := range rows {
		covered[row.field] = true
	}
	fields := reflect.TypeOf(Config{})
	for i := 0; i < fields.NumField(); i++ {
		if name := fields.Field(i).Name; !covered[name] {
			t.Errorf("Config.%s has no row: say whether a manifest may cross a change of it", name)
		}
		delete(covered, fields.Field(i).Name)
	}
	for name := range covered {
		t.Errorf("a row names Config.%s, which does not exist", name)
	}

	steps := genSteps(9, 400)
	const cut, batch = 200, 32
	rt, err := New(base())
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, rt, steps[:cut], batch)
	var ckpt bytes.Buffer
	if err := rt.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	want := ingestAll(t, rt, steps[cut:], batch)
	var wantFinal bytes.Buffer
	if err := rt.Checkpoint(&wantFinal); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if len(want) == 0 {
		t.Fatal("no pairs after the cut: the observe rows compare nothing")
	}
	payload, err := checkpoint.Read(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var wire manifestWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
		t.Fatal(err)
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := base()
			row.edit(&cfg)
			other, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer other.Close()
			if row.where == manifest {
				if err := other.validateManifest(&wire); !errors.Is(err, engine.ErrConfigMismatch) {
					t.Fatalf("validateManifest: got %v, want ErrConfigMismatch", err)
				}
			}
			err = other.Restore(bytes.NewReader(ckpt.Bytes()))
			if row.where != observe {
				if !errors.Is(err, engine.ErrConfigMismatch) {
					t.Fatalf("got %v, want ErrConfigMismatch", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("restore under another %s: %v", row.field, err)
			}
			if got := ingestAll(t, other, steps[cut:], batch); !slices.Equal(got, want) {
				t.Fatalf("the restored run emitted %d pairs, the uninterrupted %d, or they differ", len(got), len(want))
			}
			var final bytes.Buffer
			if err := other.Checkpoint(&final); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(final.Bytes(), wantFinal.Bytes()) {
				t.Fatal("final checkpoints differ between the restored and the uninterrupted run")
			}
		})
	}

	// Matching config accepts the same bytes.
	same, err := New(base())
	if err != nil {
		t.Fatal(err)
	}
	if err := same.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	same.Close()

	// Garbage is rejected before any state is touched, and a closed runtime
	// refuses both directions.
	fresh, err := New(base())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage restore succeeded")
	}
	fresh.Close()
	if err := fresh.Checkpoint(&bytes.Buffer{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close: %v, want ErrClosed", err)
	}
	if err := fresh.Restore(bytes.NewReader(ckpt.Bytes())); !errors.Is(err, ErrClosed) {
		t.Fatalf("Restore after Close: %v, want ErrClosed", err)
	}
}

// encodeManifest wraps a manifest in the checkpoint envelope.
func encodeManifest(t testing.TB, m manifestWire) []byte {
	t.Helper()
	var payload, file bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&m); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Write(&file, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	return file.Bytes()
}

// busyRuntime is the fixture's runtime a thousand steps in: caches full.
func busyRuntime(t testing.TB) *Runtime {
	t.Helper()
	rt, err := New(upgradeConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	upgradeIngest(t, rt, upgradeInput()[:1000])
	return rt
}

// refusedUnchanged restores file into rt, requires a refusal, and requires
// rt's next checkpoint to be byte-identical to one taken before the attempt.
func refusedUnchanged(t *testing.T, rt *Runtime, file []byte) error {
	t.Helper()
	var before, after bytes.Buffer
	if err := rt.Checkpoint(&before); err != nil {
		t.Fatal(err)
	}
	err := rt.Restore(bytes.NewReader(file))
	if err == nil {
		t.Fatal("the manifest restored")
	}
	if err := rt.Checkpoint(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("the refused restore (%v) changed the runtime", err)
	}
	return err
}

// TestRestoreManifestVersions: a binary restores its own manifest version and
// the previous one. Version 4 (the committed fixture) and version 5 (this
// commit's own checkpoint) restore; what the fixture continues with is pinned
// by TestRestoreParentCommitShardedCheckpoint here and
// TestRestoreParentCommitDrainFile in internal/streamd. Version 3, two formats
// back, and 6 are each refused with an error that names the version, before
// the runtime is touched. Each is the fixture re-encoded with its version
// edited: a version-3 file differs from a version-4 one only in fields this
// binary's decode skips, so nothing but the version can refuse it.
func TestRestoreManifestVersions(t *testing.T) {
	raw, _ := readFixture(t)
	rt := busyRuntime(t)
	var own bytes.Buffer
	if err := rt.Checkpoint(&own); err != nil {
		t.Fatal(err)
	}
	for name, file := range map[string][]byte{"version-4": raw, "version-5": own.Bytes()} {
		fresh, err := New(upgradeConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(fresh.Restore(bytes.NewReader(file)), fresh.CheckInvariants()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh.Shutdown()
	}

	for _, version := range []int{3, 6} {
		_, m := readFixture(t)
		m.Version = version
		err := refusedUnchanged(t, rt, encodeManifest(t, m))
		if want := fmt.Sprintf("manifest version %d", version); !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: refused with %v, want an error naming %q", version, err, want)
		}
	}
}

// engineWire mirrors the engine's checkpoint payload field by field, so that
// a test can edit a shard envelope and encode it again whole: gob matches
// fields by name.
type engineWire struct {
	CacheSize, Window, Band int
	Seed                    uint64
	PolicyName              string
	ProcSig                 string

	Time    int
	NextID  int
	Metrics engine.Metrics
	Cache   []struct {
		Tuple   join.Tuple
		Payload interface{}
		Seq     uint64
	}

	HasPolicyState bool
	PolicyState    []byte
}

// misroutedManifest is busyRuntime's checkpoint hand-edited as a forger
// would: shard 0's cached value 2, which routes to shard 0, becomes 3, which
// routes to shard 3, and the shard envelope's and the manifest's checksums
// are recomputed. It returns the file and the edited shard envelope.
func misroutedManifest(t testing.TB) (file, envelope []byte) {
	t.Helper()
	var own bytes.Buffer
	if err := busyRuntime(t).Checkpoint(&own); err != nil {
		t.Fatal(err)
	}
	var m manifestWire
	decode(t, own.Bytes(), &m)
	var w engineWire
	decode(t, m.Envelopes[0], &w)
	i := 0
	for i < len(w.Cache) && w.Cache[i].Tuple.Value != 2 {
		i++
	}
	if i == len(w.Cache) || ShardOf(2, m.Shards) != 0 || ShardOf(3, m.Shards) != 3 {
		t.Fatal("shard 0 caches no value 2 to move to shard 3")
	}
	w.Cache[i].Tuple.Value = 3
	var payload, env bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&w); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Write(&env, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	m.Envelopes[0] = env.Bytes()
	return encodeManifest(t, m), env.Bytes()
}

// TestRestoreRefusesMisroutedEntry: a manifest whose shard caches a key that
// routes to another shard is refused, though the shard's own envelope is
// valid; such an entry would never meet its partners, which arrive at the
// other shard. CheckInvariants, run over a shard engine restored from that
// envelope alone, fails the same way.
func TestRestoreRefusesMisroutedEntry(t *testing.T) {
	file, envelope := misroutedManifest(t)
	const want = "shard 0 caches key 3, which routes to shard 3"
	rt, err := New(upgradeConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if err := rt.Restore(bytes.NewReader(file)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("the misrouted manifest restored with %v, want an error naming %q", err, want)
	}

	rt, err = New(upgradeConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if err := rt.Shard(0).Restore(bytes.NewReader(envelope)); err != nil {
		t.Fatalf("the edited shard envelope is refused by the engine itself: %v", err)
	}
	if err := rt.CheckInvariants(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("CheckInvariants = %v, want an error naming %q", err, want)
	}
}
