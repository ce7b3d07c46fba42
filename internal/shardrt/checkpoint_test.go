package shardrt

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"

	"stochstream/internal/checkpoint"
	"stochstream/internal/engine"
	"stochstream/internal/process"
)

// TestShardedCheckpointReplay is the fault-tolerance gate for the sharded
// runtime: run a multi-shard stream to completion, then rerun it with a
// checkpoint/restore in the middle (into a freshly built runtime), and
// require the interrupted run's full output and final state to be
// byte-identical to the uninterrupted one. The cut point deliberately leaves
// carried lane tails in the manifest.
func TestShardedCheckpointReplay(t *testing.T) {
	cfg := Config{Shards: 4, TotalCache: 48, Procs: trendProcs(), Seed: 21}
	steps := genSteps(77, 1200)
	const batchSize = 53 // does not divide the stream: lanes carry at the cut
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
// built with the same partitioning configuration.
func TestShardedCheckpointFingerprint(t *testing.T) {
	cfg := Config{Shards: 2, TotalCache: 16, Procs: trendProcs(), Seed: 4}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, rt, genSteps(9, 200), 32)
	var ckpt bytes.Buffer
	if err := rt.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	rt.Close()

	for name, bad := range map[string]Config{
		"shards": {Shards: 4, TotalCache: 16, Procs: trendProcs(), Seed: 4},
		"cache":  {Shards: 2, TotalCache: 20, Procs: trendProcs(), Seed: 4},
		"window": {Shards: 2, TotalCache: 16, Window: 8, Procs: trendProcs(), Seed: 4},
		"seed":   {Shards: 2, TotalCache: 16, Procs: trendProcs(), Seed: 5},
	} {
		other, err := New(bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := other.Restore(bytes.NewReader(ckpt.Bytes())); !errors.Is(err, engine.ErrConfigMismatch) {
			t.Fatalf("%s mismatch restored with err %v, want ErrConfigMismatch", name, err)
		}
		other.Close()
	}

	// Matching config accepts the same bytes.
	same, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := same.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	same.Close()

	// Garbage is rejected before any state is touched, and a closed runtime
	// refuses both directions.
	fresh, err := New(cfg)
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

// manifestFileV2 is the whole version-2 manifest schema, so tests can
// re-encode the committed version-2 fixture with one field edited.
type manifestFileV2 struct {
	Version                                  int
	Shards, TotalCache, Window               int
	Seed                                     uint64
	MinBudget, RebalanceEvery, RebalanceStep int
	Seq                                      uint64
	Ingested, Batches, Merged                int
	Lanes                                    [][2][]engine.Tuple
	Budgets, LastPairs                       []int
	Moves                                    int
	Envelopes                                [][]byte
}

// readFixtureV2 decodes testdata/upgrade/sharded_pr17.ckpt with its lanes
// untagged, as Restore reads them.
func readFixtureV2(t *testing.T) manifestFileV2 {
	t.Helper()
	raw, err := os.ReadFile("testdata/upgrade/sharded_pr17.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := checkpoint.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var m manifestFileV2
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for i := range m.Lanes {
		untagLane(m.Lanes[i][0])
		untagLane(m.Lanes[i][1])
	}
	return m
}

// encodeManifest wraps a manifest in the checkpoint envelope.
func encodeManifest(t *testing.T, m manifestFileV2) []byte {
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

// busyRuntime is the fixture's runtime a thousand steps in: caches full,
// lanes carrying tails.
func busyRuntime(t *testing.T) *Runtime {
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

// TestRestoreV2Manifest: version 3 dropped the budget rebalancer, and a
// version-2 manifest restores only if its rebalancer never ran — the default
// knobs, no move, the even split. Both committed version-2 fixtures are such
// files (this one decodes as budgets [16 16 16 16]); what they continue with
// stays pinned by TestRestoreParentCommitShardedCheckpoint here and
// TestRestoreParentCommitDrainFile in internal/streamd. The same file
// re-encoded with a cadence, a move or an uneven split is refused with
// ErrConfigMismatch, and versions 1 and 4 are refused, each before the
// runtime is touched.
func TestRestoreV2Manifest(t *testing.T) {
	fx := readFixtureV2(t)
	if fx.Version != 2 || fx.MinBudget != 1 || fx.RebalanceEvery != 0 || fx.RebalanceStep != 1 ||
		fx.Moves != 0 || !slices.Equal(fx.Budgets, []int{16, 16, 16, 16}) {
		t.Fatalf("the fixture is not a version-2 manifest whose rebalancer never ran: %+v", fx)
	}
	raw, err := os.ReadFile("testdata/upgrade/sharded_pr17.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	for name, file := range map[string][]byte{"as committed": raw, "re-encoded": encodeManifest(t, fx)} {
		rt, err := New(upgradeConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(rt.Restore(bytes.NewReader(file)), rt.CheckInvariants()); err != nil {
			t.Fatalf("fixture %s: %v", name, err)
		}
		rt.Shutdown()
	}

	rt := busyRuntime(t)
	for _, tc := range []struct {
		name     string
		edit     func(*manifestFileV2)
		mismatch bool
	}{
		{"every-3", func(m *manifestFileV2) { m.RebalanceEvery = 3 }, true},
		{"moves-1", func(m *manifestFileV2) { m.Moves = 1 }, true},
		{"uneven-split", func(m *manifestFileV2) { m.Budgets = []int{17, 15, 16, 16} }, true},
		{"version-1", func(m *manifestFileV2) { m.Version = 1 }, false},
		{"version-4", func(m *manifestFileV2) { m.Version = 4 }, false},
	} {
		m := readFixtureV2(t)
		tc.edit(&m)
		err := refusedUnchanged(t, rt, encodeManifest(t, m))
		if tc.mismatch != errors.Is(err, engine.ErrConfigMismatch) {
			t.Errorf("%s: refused with %v; ErrConfigMismatch wanted: %v", tc.name, err, tc.mismatch)
		}
	}
}

// TestRestoreRejectsHostileLanes: a carried lane tuple is an arrival routed to
// its shard and not yet stepped, so in shard i's side-s lane each must have a
// key in the domain that routes to shard i, a sequence number of side s's
// parity, below the next arrival's, and ascending along the lane. One edit
// per rule on the committed fixture's lanes, each refused with the runtime
// unchanged. Before the lanes were checked every one of them restored: a
// misrouted tuple never meets its partners, an odd R sequence breaks
// Pair.RSeq = 2·step, and a sequence at the next arrival's collides with it.
func TestRestoreRejectsHostileLanes(t *testing.T) {
	// The first R lane carrying two tuples or more; R runs ahead in this run.
	shard := -1
	for i, lanes := range readFixtureV2(t).Lanes {
		if len(lanes[0]) >= 2 {
			shard = i
			break
		}
	}
	if shard < 0 {
		t.Fatal("no R lane of the fixture carries two tuples")
	}
	elsewhere := 0
	for ShardOf(elsewhere, upgradeConfig().Shards) == shard {
		elsewhere++
	}
	rt := busyRuntime(t)
	for _, tc := range []struct {
		name, want string
		edit       func(m *manifestFileV2, lane []engine.Tuple)
	}{
		{"key-outside-domain", "outside", func(_ *manifestFileV2, lane []engine.Tuple) { lane[0].Key = process.NoValue }},
		{"wrong-shard", "routes to shard", func(_ *manifestFileV2, lane []engine.Tuple) { lane[0].Key = elsewhere }},
		{"odd-r-sequence", "not the other side's", func(_ *manifestFileV2, lane []engine.Tuple) { lane[0].Seq++ }},
		{"sequence-of-next-arrival", "not below the next arrival's", func(m *manifestFileV2, lane []engine.Tuple) { lane[len(lane)-1].Seq = m.Seq }},
		{"sequence-descends", "does not follow", func(_ *manifestFileV2, lane []engine.Tuple) { lane[0], lane[1] = lane[1], lane[0] }},
	} {
		m := readFixtureV2(t)
		tc.edit(&m, m.Lanes[shard][0])
		if err := refusedUnchanged(t, rt, encodeManifest(t, m)); !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: refused with %v, want the rule %q", tc.name, err, tc.want)
		}
	}
}
