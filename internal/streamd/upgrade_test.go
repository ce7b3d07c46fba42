package streamd_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stochstream/internal/checkpoint"
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

// upgradeAfterSHA256 is the SHA-256 of session "after"'s pair listing on a
// daemon that served both sessions itself. It was first computed at commit
// 0387968, where the first fixture was written, and re-based twice. At d26fcf0 the
// engine's cache became a table of slots: RAND draws the same positions as
// before, over slots that no longer list the cache in ID order, so they name
// other tuples (docs/fault-tolerance.md, on RAND checkpoints across it);
// cf840fe9… was the hash until then. Then a shard came to step on the
// stream's clock: each arrival is stepped at its own global step, one-sided
// when the other stream's key went to another shard, where the lanes had
// paired a shard's R and S arrivals by position — other steps, other
// decisions, other pairs (docs/fault-tolerance.md, "Manifest version 4");
// 55bc270e… was the hash from d26fcf0 until then. Each listing is a valid
// run, and no two are byte-comparable.
const upgradeAfterSHA256 = "f0f9d20bc33670ab74d9d92a43bd2f585a86a815ceba1830511cdc1e57f9e4bd"

// drainFixture is a version-2 drain file around a version-4 manifest, each the
// format before this commit's for its layer: written by commit 22e9c79 after
// session "before" had streamed its 40 batches. Its bytes are pinned, so that
// a fixture regenerated at a later commit fails the tests that read it instead
// of testing the current format twice.
const (
	drainFixture       = "testdata/upgrade/daemon_pr57.ckpt"
	drainFixtureSHA256 = "97146bf6d7a26b01fcb4fc98c721441cf1d6da078778b1ee004793da98df136f"
)

// drainFile is the drain file's whole schema, so a test can re-encode the
// fixture with one field edited.
type drainFile struct {
	Version  int
	Sessions []struct {
		Name            string
		Acked, LastBase uint64
		LastFrame       []byte
	}
	Runtime []byte
}

// decodeEnvelope reads a checkpoint envelope's gob payload into v.
func decodeEnvelope(t *testing.T, b []byte, v any) {
	t.Helper()
	payload, err := checkpoint.Read(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// readDrainFixture reads drainFixture, requires its pinned bytes, a version-2
// drain file holding session "before"'s last reply and, inside it, a
// version-4 manifest, and returns the file and its decoded contents.
func readDrainFixture(t *testing.T) ([]byte, drainFile) {
	t.Helper()
	raw, err := os.ReadFile(drainFixture)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != drainFixtureSHA256 {
		t.Fatalf("%s hashes to %s, pinned at %s", drainFixture, got, drainFixtureSHA256)
	}
	var file drainFile
	var manifest struct{ Version int }
	decodeEnvelope(t, raw, &file)
	decodeEnvelope(t, file.Runtime, &manifest)
	if file.Version != 2 || manifest.Version != 4 || len(file.Sessions) != 1 ||
		file.Sessions[0].Name != "before" || file.Sessions[0].LastFrame == nil {
		t.Fatalf("%s is drain file version %d around manifest version %d with %d sessions, want version 2 around version 4 with session \"before\" and its last reply",
			drainFixture, file.Version, manifest.Version, len(file.Sessions))
	}
	return raw, file
}

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

// render appends pairs to listing, one line a pair with every field a client
// sees.
func render(listing []byte, pairs []wire.Pair) []byte {
	for _, p := range pairs {
		listing = fmt.Appendf(listing, "%d %d %d %d %q %q %v %d\n", p.RSeq, p.SSeq, p.RKey, p.SKey, p.RPayload, p.SPayload, p.SameStep, p.Shard)
	}
	return listing
}

// upgradeSession streams work through one named session and returns its pair
// listing and the part of it its last batch produced.
func upgradeSession(t *testing.T, srv *streamd.Server, name string, work [][]wire.Step) (listing, last []byte) {
	t.Helper()
	cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: name, Seed: 3})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for b, steps := range work {
		pairs, err := cl.Ingest(steps)
		if err != nil {
			t.Fatalf("session %s batch %d: %v", name, b, err)
		}
		n := len(listing)
		listing = render(listing, pairs)
		last = listing[n:]
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return listing, last
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

// drainFixture holds the sharded manifest plus session "before"'s resume
// state. A daemon of this commit starts from it and is indistinguishable from
// one that served both sessions itself: session "after" gets the same pairs,
// and the next drain file is the same. A client of session "before" one batch
// behind resumes on it and is replayed the reply the session's last batch got.
func TestRestoreParentCommitDrainFile(t *testing.T) {
	old, file := readDrainFixture(t)
	work := upgradeWork()
	dir := t.TempDir()

	wholePath := filepath.Join(dir, "whole.ckpt")
	whole := upgradeDaemon(t, wholePath)
	_, wantLast := upgradeSession(t, whole, "before", work[:upgradeCut])
	wantPairs, _ := upgradeSession(t, whole, "after", work[upgradeCut:])
	wantFile := upgradeDrain(t, whole, wholePath)
	if got := fmt.Sprintf("%x", sha256.Sum256(wantPairs)); got != upgradeAfterSHA256 {
		t.Fatalf("pair listing of the uninterrupted daemon hashes to %s, pinned at %s", got, upgradeAfterSHA256)
	}

	resumedPath := filepath.Join(dir, "resumed.ckpt")
	if err := os.WriteFile(resumedPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := upgradeDaemon(t, resumedPath)
	gotPairs, _ := upgradeSession(t, resumed, "after", work[upgradeCut:])
	gotFile := upgradeDrain(t, resumed, resumedPath)
	if !bytes.Equal(gotPairs, wantPairs) {
		t.Fatal("pairs diverge after starting from the fixture")
	}
	if !bytes.Equal(gotFile, wantFile) {
		t.Fatalf("next drain files differ: %d bytes from the restarted daemon, %d from the uninterrupted one", len(gotFile), len(wantFile))
	}

	replayPath := filepath.Join(dir, "replay.ckpt")
	if err := os.WriteFile(replayPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := upgradeDaemon(t, replayPath)
	defer srv.Close()
	acked := file.Sessions[0].Acked
	rc := rawDial(t, srv.Addr())
	rc.handshake(t, "before", acked-1)
	var got []wire.Pair
	for more := true; more; {
		typ, payload := rc.read(t)
		if typ != wire.TypeResults {
			t.Fatalf("replay frame of type 0x%02x", typ)
		}
		f, err := wire.AppendResults(got, payload)
		if err != nil || f.AckSeq != acked {
			t.Fatalf("replayed frame acknowledges %d (%v), want %d", f.AckSeq, err, acked)
		}
		got, more = f.Pairs, f.More
	}
	if len(got) == 0 || !bytes.Equal(render(nil, got), wantLast) {
		t.Fatalf("the replayed reply lists %d pairs that differ from the last batch's:\n%s", len(got), render(nil, got))
	}
}

// TestRestoreRefusesDrainFileV1: a version-1 drain file nests a manifest of
// version 3 or lower, two formats back for the runtime, so none can restore,
// and the daemon refuses the version before it reads the manifest. The file is
// the fixture with its version edited, so nothing but the version can refuse
// it. The daemon does not start, and the file is left as it was.
func TestRestoreRefusesDrainFileV1(t *testing.T) {
	_, file := readDrainFixture(t)
	file.Version = 1
	var payload, v1 bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&file); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Write(&v1, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.ckpt")
	if err := os.WriteFile(path, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := streamd.Start(streamd.Config{
		Runtime:        shardrt.Config{Shards: 4, TotalCache: 64, Seed: 1917},
		Listen:         "127.0.0.1:0",
		CheckpointPath: path,
	})
	if err == nil {
		_ = srv.Close()
		t.Fatal("a daemon started from a version-1 drain file")
	}
	if !strings.Contains(err.Error(), "checkpoint version 1") {
		t.Fatalf("refused with %v, want an error naming checkpoint version 1", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, v1.Bytes()) {
		t.Fatal("the refused start rewrote the drain file")
	}
}
