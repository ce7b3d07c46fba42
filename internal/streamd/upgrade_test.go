package streamd_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
// 0387968, where the fixture was written, and is re-based at PR 27, which made
// the engine's cache a table of slots: RAND draws the same positions as
// before, over slots that no longer list the cache in ID order, so they name
// other tuples — a valid run, not byte-comparable across that commit
// (docs/fault-tolerance.md, "RAND checkpoints across PR 27"); cf840fe9… was
// the hash from 0387968 until then.
const upgradeAfterSHA256 = "55bc270eb0b2ed54a42e1889afb95748a359707c22e6a3253c80c083e1e39452"

// upgradeResumedSHA256 is the same hash on a daemon started from the fixture:
// the old file lists each shard's cache in ID order, which restores as that
// layout — one a daemon of this commit does not have after session "before"
// — so what session "after" gets is neither the old binary's listing nor the
// uninterrupted daemon's, and has its own pin.
const upgradeResumedSHA256 = "ef5d085399d08b40edc73b1b02d4deece83a8bafdb7571e3be9daf9222668b96"

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
// A daemon of this commit starts from it and serves session "after" a valid
// run — every pair joins equal keys, none is delivered twice — whose listing
// is pinned, and drains again. That it is indistinguishable from a daemon that
// served both sessions itself — the same pairs, the same next drain file —
// holds of a drain file this commit writes at the same cut, and no longer of
// the fixture: RAND reads positions, and an old file cannot know the layout
// (see upgradeAfterSHA256).
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
		t.Fatalf("pair listing of the uninterrupted daemon hashes to %s, pinned at %s", got, upgradeAfterSHA256)
	}

	// Through this commit's own drain file at the cut: one daemon serves
	// "before" and drains, the next starts from its file.
	ownPath := filepath.Join(dir, "own.ckpt")
	first := upgradeDaemon(t, ownPath)
	upgradeSession(t, first, "before", work[:upgradeCut])
	upgradeDrain(t, first, ownPath)
	second := upgradeDaemon(t, ownPath)
	gotPairs := upgradeSession(t, second, "after", work[upgradeCut:])
	gotFile := upgradeDrain(t, second, ownPath)
	if !bytes.Equal(gotPairs, wantPairs) {
		t.Fatal("pairs diverge after starting from this commit's drain file")
	}
	if !bytes.Equal(gotFile, wantFile) {
		t.Fatalf("next drain files differ: %d bytes from the restarted daemon, %d from the uninterrupted one", len(gotFile), len(wantFile))
	}

	// From the parent commit's file.
	resumedPath := filepath.Join(dir, "resumed.ckpt")
	if err := os.WriteFile(resumedPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := upgradeDaemon(t, resumedPath)
	oldPairs := upgradeSession(t, resumed, "after", work[upgradeCut:])
	if got := fmt.Sprintf("%x", sha256.Sum256(oldPairs)); got != upgradeResumedSHA256 {
		t.Errorf("pair listing served from the parent commit's drain file hashes to %s, pinned at %s", got, upgradeResumedSHA256)
	}
	seen := map[[2]uint64]bool{}
	for _, line := range bytes.Split(bytes.TrimSuffix(oldPairs, []byte("\n")), []byte("\n")) {
		var seq [2]uint64
		var rKey, sKey int64
		if _, err := fmt.Sscan(string(line), &seq[0], &seq[1], &rKey, &sKey); err != nil {
			t.Fatalf("pair line %q: %v", line, err)
		}
		if rKey != sKey || seen[seq] {
			t.Fatalf("pair %q: keys differ, or the pair was delivered before", line)
		}
		seen[seq] = true
	}
	if len(seen) == 0 {
		t.Fatal("the daemon started from the parent commit's drain file delivered no pair")
	}
	if next := upgradeDrain(t, resumed, resumedPath); len(next) == 0 || bytes.Equal(next, old) {
		t.Fatalf("the next drain file is %d bytes, the fixture %d: it was not rewritten", len(next), len(old))
	}
}

// v1Reply lists a reply held in wire Version 1, read by hand: frames of type,
// length and payload; a payload of AckSeq, Credits, flags, a pair count and
// the pairs; a pair of RSeq, SSeq, RKey, SKey, shard, the same-step byte and
// both payloads, length-prefixed (0xFFFFFFFF: absent).
func v1Reply(t *testing.T, b []byte) (ack uint64, pairs []wire.Pair) {
	t.Helper()
	be := binary.BigEndian
	for len(b) > 0 {
		if b[0] != wire.TypeResults {
			t.Fatalf("the fixture's reply holds a frame of type 0x%02x", b[0])
		}
		p := b[5 : 5+be.Uint32(b[1:])]
		b = b[5+len(p):]
		ack = be.Uint64(p)
		n := int(be.Uint32(p[13:]))
		p = p[17:]
		blob := func() []byte {
			size := be.Uint32(p)
			p = p[4:]
			if size == 0xFFFFFFFF {
				return nil
			}
			v := p[:size:size]
			p = p[size:]
			return v
		}
		for i := 0; i < n; i++ {
			pr := wire.Pair{RSeq: be.Uint64(p), SSeq: be.Uint64(p[8:]), RKey: int64(be.Uint64(p[16:])), SKey: int64(be.Uint64(p[24:])),
				Shard: be.Uint16(p[32:]), SameStep: p[34] == 1}
			p = p[35:]
			pr.RPayload = blob()
			pr.SPayload = blob()
			pairs = append(pairs, pr)
		}
	}
	return ack, pairs
}

// TestRestoredV1ReplyReplaysInV2: the fixture is a version 1 drain file, and
// session "before"'s last reply in it is in wire Version 1. A client one batch
// behind resumes on a daemon started from it: the reply replayed to it must
// decode, in this version's layout, to exactly the pairs the fixture lists.
func TestRestoredV1ReplyReplaysInV2(t *testing.T) {
	old, err := os.ReadFile("testdata/upgrade/daemon_pr17.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := checkpoint.Read(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Version  int
		Sessions []struct {
			Name      string
			Acked     uint64
			LastFrame []byte
		}
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.Version != 1 || len(file.Sessions) != 1 || file.Sessions[0].Name != "before" {
		t.Fatalf("the fixture is drain file version %d with sessions %+v, want version 1 with session \"before\"", file.Version, file.Sessions)
	}
	sess := file.Sessions[0]
	ack, want := v1Reply(t, sess.LastFrame)
	if ack != sess.Acked || len(want) == 0 {
		t.Fatalf("the fixture's reply acknowledges %d with %d pairs; the session acked %d", ack, len(want), sess.Acked)
	}

	path := filepath.Join(t.TempDir(), "resumed.ckpt")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := upgradeDaemon(t, path)
	defer srv.Close()
	rc := rawDial(t, srv.Addr())
	rc.handshake(t, "before", sess.Acked-1)
	var got []wire.Pair
	for more := true; more; {
		typ, payload := rc.read(t)
		if typ != wire.TypeResults {
			t.Fatalf("replay frame of type 0x%02x", typ)
		}
		f, err := wire.AppendResults(got, payload)
		if err != nil || f.AckSeq != sess.Acked {
			t.Fatalf("replayed frame acknowledges %d (%v), want %d", f.AckSeq, err, sess.Acked)
		}
		got, more = f.Pairs, f.More
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the replayed reply decodes to %d pairs that differ from the fixture's %d", len(got), len(want))
	}
}
