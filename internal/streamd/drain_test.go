package streamd_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
	"stochstream/internal/streamd"
	"stochstream/internal/streamd/client"
	"stochstream/internal/streamd/wire"
)

// TestDrainExpiredContextUnderLoad pins the drain timeout path: even when
// the context is already dead, drain must wait for the engine loop to
// finish its admitted batches before shutting the runtime down (the
// race-detected CI run would flag a Shutdown racing IngestBatch), and the
// daemon must still stop completely.
func TestDrainExpiredContextUnderLoad(t *testing.T) {
	srv, err := streamd.Start(streamd.Config{
		Runtime:    testRuntimeConfig(4),
		Listen:     "127.0.0.1:0",
		RetryAfter: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	cl, err := client.Dial(client.Options{
		Addr:        srv.Addr(),
		Session:     "expired",
		Seed:        13,
		MaxAttempts: 3,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()

	// Keep the engine busy while the drain lands.
	rng := stats.NewRNG(77)
	var sent atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, err := cl.Ingest(genSteps(rng, 64, 16)); err != nil {
				return // draining: retries exhausted, the stream ends here
			}
			sent.Add(1)
		}
	}()
	for sent.Load() < 3 {
		time.Sleep(100 * time.Microsecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(ctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain with dead context: %v", err)
	}
	wg.Wait()

	// Conservation still holds: every acknowledged batch was ingested
	// exactly once even though the drain context never granted any time.
	steps := srv.Registry().Snapshot().Counters["streamd_steps_total"]
	if steps < sent.Load()*64 {
		t.Fatalf("steps_total = %d, below the %d acknowledged", steps, sent.Load()*64)
	}
}

// TestDrainRestartByteIdentical is the drain-under-load differential: a
// client streams batches while the daemon is drained mid-stream, the drain
// writes a checkpoint, a fresh daemon restores it on the same address, and
// the client rides its retry loop across the outage. The concatenated
// result stream — acknowledged batches before the drain, after the restart,
// and the final flush — must be byte-identical to an uninterrupted direct
// runtime fed the same batch boundaries.
func TestDrainRestartByteIdentical(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "drain.ckpt")
	cfg := func(listen string) streamd.Config {
		return streamd.Config{
			Runtime:        testRuntimeConfig(4),
			Listen:         listen,
			CheckpointPath: ckpt,
			RetryAfter:     time.Millisecond,
		}
	}
	srv1, err := streamd.Start(cfg("127.0.0.1:0"))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	addr := srv1.Addr()

	// Pre-generate every batch: the boundaries are the determinism domain.
	rng := stats.NewRNG(2024)
	const batches, batchLen = 40, 64
	work := make([][]wire.Step, batches)
	for b := range work {
		work[b] = genSteps(rng, batchLen, 16)
	}

	cl, err := client.Dial(client.Options{
		Addr:        addr,
		Session:     "drain",
		Seed:        11,
		MaxAttempts: 400,
		BaseBackoff: 500 * time.Microsecond,
		MaxBackoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()

	// The client streams on its own goroutine. Once batch drainAt is
	// acknowledged it waits until the drain has begun, so the drain lands
	// there every time and the checkpoint carries real session and runtime
	// state. A batch that exhausts its retries inside the outage window is
	// simply retried again: the base is derived from acked state, so the
	// resume point cannot drift.
	const drainAt = 5
	atDrain := make(chan struct{})
	gotPairs := make([][]wire.Pair, batches)
	var acked atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			for {
				pairs, err := cl.Ingest(work[b])
				if err == nil {
					gotPairs[b] = pairs
					break
				}
				t.Logf("batch %d riding outage: %v", b, err)
			}
			acked.Store(int64(b + 1))
			if b+1 == drainAt {
				close(atDrain)
				for !srv1.Draining() {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}
	}()

	<-atDrain
	if err := srv1.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	ackedAtDrain := acked.Load()
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("drain wrote no checkpoint: %v", err)
	}

	// Restart on the same address from the checkpoint; the client's backoff
	// spans the gap and its session resumes by sequence.
	srv2, err := streamd.Start(cfg(addr))
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer func() { _ = srv2.Close() }()
	wg.Wait()

	if acked.Load() != batches {
		t.Fatalf("client finished %d/%d batches", acked.Load(), batches)
	}
	if ackedAtDrain != drainAt {
		t.Fatalf("drain landed after batch %d, want %d", ackedAtDrain, drainAt)
	}
	// Uninterrupted oracle: the direct runtime with identical boundaries.
	oracle, err := shardrt.New(testRuntimeConfig(4))
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	defer func() { _, _ = oracle.Close() }()
	for b := 0; b < batches; b++ {
		want, err := oracle.IngestBatch(toRuntimeSteps(work[b]))
		if err != nil {
			t.Fatalf("oracle batch %d: %v", b, err)
		}
		wirePairsEqualRuntime(t, gotPairs[b], want)
	}
	// Every batch is stepped before its reply, so the oracle has nothing
	// left to flush: the replies compared above are every pair of the run.
	if rest, err := oracle.Flush(); err != nil || len(rest) != 0 {
		t.Fatalf("oracle flush after the last batch: %d pairs, %v; want none", len(rest), err)
	}

	// Step conservation across the restart: the two daemons together
	// ingested every step exactly once — the checkpoint carried the prefix,
	// the replay buffer absorbed any ack lost to the drain, and nothing was
	// re-ingested or dropped.
	pre := srv1.Registry().Snapshot().Counters["streamd_steps_total"]
	post := srv2.Registry().Snapshot().Counters["streamd_steps_total"]
	if pre+post != int64(batches)*batchLen {
		t.Fatalf("steps split %d + %d across restart, want total %d", pre, post, int64(batches)*batchLen)
	}
	if pre == 0 || post == 0 {
		t.Fatalf("drain did not land mid-stream: %d steps before, %d after", pre, post)
	}
	t.Logf("drained after ~%d/%d batches; steps %d before restart, %d after", ackedAtDrain, batches, pre, post)
}

// TestDrainFileSizeIndependentOfSteps: the drain file holds the caches and
// each session's last reply — nothing that counts steps. A
// daemon drained after 2×10^3 steps, restarted from that file and drained
// again after 2×10^5 writes two files of the same size, but for one more
// session entry and the width of the integers in them (sequence numbers, IDs
// and arrival times 100 times larger, in as many bytes as gob needs). Both
// arrivals of a step carry the same key, so they route to the same shard,
// and each phase ends on a one-step batch, so the reply the session keeps is
// a few bytes. At the parent commit the second file is
// larger by the two histories: 8×10^5 observations, about 1.5 MB.
func TestDrainFileSizeIndependentOfSteps(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "drain.ckpt")
	const cache, batch = 64, 500
	rng := stats.NewRNG(31)
	serve := func(session string, steps int) int64 {
		t.Helper()
		srv, err := streamd.Start(streamd.Config{
			Runtime:        shardrt.Config{Shards: 4, TotalCache: cache, Seed: 42},
			Listen:         "127.0.0.1:0",
			CheckpointPath: ckpt,
		})
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: session, Seed: 11, MaxBatch: batch})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		buf := make([]wire.Step, batch)
		for left := steps - 1; left > 0; left -= len(buf) { // all but the closing step
			buf = buf[:min(batch, left)]
			for i := range buf {
				k := int64(rng.IntN(4096))
				buf[i] = wire.Step{RKey: k, SKey: k}
			}
			if _, err := cl.Ingest(buf); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
		}
		if _, err := cl.Ingest([]wire.Step{{RKey: 5000, SKey: 5001}}); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		_ = cl.Close()
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		st, err := os.Stat(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	early := serve("early", 2e3)
	late := serve("late", 2e5-2e3)
	const ints = 4*cache + 64 // per cached entry: ID, arrival time, sequence tag, and room; then the counters
	if slack := int64(4*ints + 128); late > early+slack || late < early {
		t.Errorf("drain file after 2×10^3 steps is %d bytes, after 2×10^5 steps %d: want the second within %d bytes above the first", early, late, slack)
	}
	t.Logf("%d bytes after 2×10^3 steps, %d after 2×10^5", early, late)
}
