package streamd_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"stochstream/internal/process"
	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
	"stochstream/internal/streamd"
	"stochstream/internal/streamd/client"
	"stochstream/internal/streamd/wire"
)

// The daemon upgrade fixture's run: the sharded fixture's stream
// (internal/shardrt/upgrade_test.go) served in 80 batches of 50 — session
// "before" sends the first 40, session "after" the rest.
const (
	upgradeBatches = 80
	upgradeBatch   = 50
	upgradeCut     = 40
)

// upgradeAfterSHA256 is the SHA-256 of session "after"'s pair listing at
// commit 0387968, where the fixture was written.
const upgradeAfterSHA256 = "cf840fe90e1486aac1fe6677ab2912e30194645488e51e0c253e42e4e9f44c14"

func upgradeWork() [][]wire.Step {
	rng := stats.NewRNG(1917)
	work := make([][]wire.Step, upgradeBatches)
	for b := range work {
		work[b] = make([]wire.Step, upgradeBatch)
		for i := range work[b] {
			n := b*upgradeBatch + i
			st := wire.Step{
				RKey: int64(rng.IntN(24)), SKey: int64(rng.IntN(48)),
				RPayload: []byte(fmt.Sprintf("r%04d", n)), SPayload: []byte(fmt.Sprintf("s%04d", n)),
			}
			if rng.IntN(5) == 0 {
				st.SKey = int64(process.NoValue)
			}
			work[b][i] = st
		}
	}
	return work
}

func upgradeDaemon(t *testing.T, ckpt string) *streamd.Server {
	t.Helper()
	srv, err := streamd.Start(streamd.Config{
		Runtime:        shardrt.Config{Shards: 4, TotalCache: 64, Seed: 1917},
		Listen:         "127.0.0.1:0",
		CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return srv
}

// upgradeSession streams work through one named session and returns its pair
// listing, one line a pair.
func upgradeSession(t *testing.T, srv *streamd.Server, name string, work [][]wire.Step) []byte {
	t.Helper()
	cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: name, Seed: 3})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	var listing []byte
	for b, steps := range work {
		pairs, err := cl.Ingest(steps)
		if err != nil {
			t.Fatalf("session %s batch %d: %v", name, b, err)
		}
		for _, p := range pairs {
			listing = fmt.Appendf(listing, "%d %d %d %d %q %q %v %d\n", p.RSeq, p.SSeq, p.RKey, p.SKey, p.RPayload, p.SPayload, p.SameStep, p.Shard)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return listing
}

// upgradeDrain drains srv and returns the file it wrote.
func upgradeDrain(t *testing.T, srv *streamd.Server, ckpt string) []byte {
	t.Helper()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testdata/upgrade/daemon_pr17.ckpt is the drain file commit 0387968 wrote
// after session "before" had streamed its 40 batches: the sharded manifest
// with Tagged payloads in caches and lanes, plus the session's resume state.
// A daemon of this commit starts from it, serves session "after", and is
// indistinguishable from one that served both sessions itself: the same pairs
// (which are also the parent commit's, by hash) and the same next drain file.
func TestRestoreParentCommitDrainFile(t *testing.T) {
	old, err := os.ReadFile("testdata/upgrade/daemon_pr17.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	work := upgradeWork()
	dir := t.TempDir()

	wholePath := filepath.Join(dir, "whole.ckpt")
	whole := upgradeDaemon(t, wholePath)
	upgradeSession(t, whole, "before", work[:upgradeCut])
	wantPairs := upgradeSession(t, whole, "after", work[upgradeCut:])
	wantFile := upgradeDrain(t, whole, wholePath)
	if got := fmt.Sprintf("%x", sha256.Sum256(wantPairs)); got != upgradeAfterSHA256 {
		t.Fatalf("pair listing of the uninterrupted daemon hashes to %s, the parent commit's to %s", got, upgradeAfterSHA256)
	}

	resumedPath := filepath.Join(dir, "resumed.ckpt")
	if err := os.WriteFile(resumedPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := upgradeDaemon(t, resumedPath)
	gotPairs := upgradeSession(t, resumed, "after", work[upgradeCut:])
	gotFile := upgradeDrain(t, resumed, resumedPath)
	if !bytes.Equal(gotPairs, wantPairs) {
		t.Fatal("pairs diverge after starting from the parent commit's drain file")
	}
	if !bytes.Equal(gotFile, wantFile) {
		t.Fatalf("next drain files differ: %d bytes from the restored daemon, %d from the uninterrupted one", len(gotFile), len(wantFile))
	}
}
