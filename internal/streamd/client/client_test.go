package client_test

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
	"stochstream/internal/streamd"
	"stochstream/internal/streamd/client"
	"stochstream/internal/streamd/wire"
)

// The client against an in-process daemon: who owns what Ingest returns, what
// a retry resends, and that a reply arriving in several frames or batches is
// the one listing a direct runtime produces.

func runtimeConfig() shardrt.Config { return shardrt.Config{Shards: 4, TotalCache: 256, Seed: 42} }

func startDaemon(t *testing.T) *streamd.Server {
	t.Helper()
	srv, err := streamd.Start(streamd.Config{Runtime: runtimeConfig(), Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func dial(t *testing.T, opt client.Options) *client.Client {
	t.Helper()
	opt.Seed, opt.BaseBackoff, opt.MaxBackoff = 7, 100*time.Microsecond, time.Millisecond
	cl, err := client.Dial(opt)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	return cl
}

// genSteps draws n steps on a small key domain (so they pair) with payloads
// of the given size that name their batch and position.
func genSteps(rng *stats.RNG, batch, n, domain, payload int) []wire.Step {
	steps := make([]wire.Step, n)
	for i := range steps {
		steps[i] = wire.Step{
			RKey: int64(rng.IntN(domain)), SKey: int64(rng.IntN(domain)),
			RPayload: bytes.Repeat([]byte{'r', byte(batch), byte(i)}, payload/3+1),
			SPayload: bytes.Repeat([]byte{'s', byte(batch), byte(i)}, payload/3+1),
		}
	}
	return steps
}

// direct runs the batches through a runtime of the daemon's configuration and
// returns, per batch, the pairs as the wire would carry them.
func direct(t *testing.T, batches ...[]wire.Step) [][]wire.Pair {
	t.Helper()
	rt, err := shardrt.New(runtimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	out := make([][]wire.Pair, len(batches))
	for b, ws := range batches {
		steps := make([]shardrt.Step, len(ws))
		for i, w := range ws {
			steps[i].R.Key, steps[i].R.Payload = int(w.RKey), w.RPayload
			steps[i].S.Key, steps[i].S.Payload = int(w.SKey), w.SPayload
		}
		pairs, err := rt.IngestBatch(steps)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			out[b] = append(out[b], wire.Pair{
				RSeq: p.RSeq, SSeq: p.SSeq, RKey: int64(p.R.Key), SKey: int64(p.S.Key),
				Shard: uint16(p.Shard), SameStep: p.SameStep,
				RPayload: p.R.Payload.([]byte), SPayload: p.S.Payload.([]byte),
			})
		}
	}
	return out
}

func clonePairs(pairs []wire.Pair) []wire.Pair {
	out := make([]wire.Pair, len(pairs))
	for i, p := range pairs {
		out[i] = p
		out[i].RPayload, out[i].SPayload = bytes.Clone(p.RPayload), bytes.Clone(p.SPayload)
	}
	return out
}

// TestIngestPairsAreCallerOwned: the client reuses its ingest buffer, never
// anything it has returned. The pairs of one call stay intact while two more
// calls (larger ones, so every internal buffer is rewritten) and Close go by.
func TestIngestPairsAreCallerOwned(t *testing.T) {
	srv := startDaemon(t)
	cl := dial(t, client.Options{Addr: srv.Addr(), Session: "owned"})
	rng := stats.NewRNG(5)
	a, b, c := genSteps(rng, 0, 60, 8, 24), genSteps(rng, 1, 200, 8, 48), genSteps(rng, 2, 200, 8, 48)
	want := direct(t, a, b, c)

	got, err := cl.Ingest(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want[0]) {
		t.Fatalf("first reply: %d pairs, direct runtime %d", len(got), len(want[0]))
	}
	held := clonePairs(got)
	for i, steps := range [][]wire.Step{b, c} {
		later, err := cl.Ingest(steps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(later, want[i+1]) {
			t.Fatalf("reply %d diverges from the direct runtime", i+1)
		}
		if !reflect.DeepEqual(got, held) {
			t.Fatalf("pairs of the first Ingest changed during later call %d", i+1)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, held) {
		t.Fatal("pairs of the first Ingest changed at Close")
	}
}

// cutConn records every ingest frame written through it and, while armed,
// lets only the first half of one through before failing the connection.
type cutConn struct {
	net.Conn
	log *writeLog
}

type writeLog struct {
	mu     sync.Mutex
	armed  bool
	frames [][]byte
}

func (c *cutConn) Write(b []byte) (int, error) {
	if len(b) == 0 || b[0] != wire.TypeIngest {
		return c.Conn.Write(b)
	}
	c.log.mu.Lock()
	c.log.frames = append(c.log.frames, bytes.Clone(b))
	cut := c.log.armed
	c.log.armed = false
	c.log.mu.Unlock()
	if !cut {
		return c.Conn.Write(b)
	}
	n, _ := c.Conn.Write(b[:len(b)/2])
	_ = c.Conn.Close()
	return n, errors.New("cutConn: connection dropped mid-frame")
}

// TestRetryResendsIdenticalFrame: the ingest frame is encoded once into the
// client's buffer; when the connection drops halfway through it, the retry
// on a fresh connection sends those same bytes, the daemon ingests the batch
// exactly once, and the next batch — encoded over the same buffer — is itself.
func TestRetryResendsIdenticalFrame(t *testing.T) {
	srv := startDaemon(t)
	log := &writeLog{}
	cl := dial(t, client.Options{Addr: srv.Addr(), Session: "retry", Dialer: func(addr string) (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &cutConn{Conn: nc, log: log}, nil
	}})
	rng := stats.NewRNG(8)
	first, second := genSteps(rng, 0, 120, 8, 30), genSteps(rng, 1, 40, 8, 12)
	want := direct(t, first, second)

	log.armed = true
	got, err := cl.Ingest(first)
	if err != nil {
		t.Fatalf("Ingest across a dropped connection: %v", err)
	}
	if !reflect.DeepEqual(got, want[0]) {
		t.Fatal("reply after the retry diverges from the direct runtime")
	}
	frame := wire.Frame(wire.TypeIngest, wire.EncodeIngest(wire.Ingest{Base: 1, Steps: first}))
	if len(log.frames) != 2 || !bytes.Equal(log.frames[0], frame) || !bytes.Equal(log.frames[1], frame) {
		t.Fatalf("%d ingest writes; want the batch's frame twice, byte for byte", len(log.frames))
	}
	got, err = cl.Ingest(second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[1]) {
		t.Fatal("second reply diverges from the direct runtime")
	}
	frame = wire.Frame(wire.TypeIngest, wire.EncodeIngest(wire.Ingest{Base: 2, Steps: second}))
	if len(log.frames) != 3 || !bytes.Equal(log.frames[2], frame) {
		t.Fatal("the shorter second batch, encoded over the reused buffer, is not its own frame")
	}
	if steps := srv.Registry().Snapshot().Counters["streamd_steps_total"]; steps != int64(len(first)+len(second)) {
		t.Fatalf("daemon ingested %d steps, client sent %d", steps, len(first)+len(second))
	}
}

// TestChunkedAndSplitRepliesAreOneListing: a reply the daemon has to send as
// several Results frames (More), and an Ingest the client has to send as
// several batches (MaxBatch), each come back as one slice equal to what a
// direct runtime emits over the same batch boundaries, concatenated.
func TestChunkedAndSplitRepliesAreOneListing(t *testing.T) {
	srv := startDaemon(t)

	// Two batches of 12 steps on one key with 128 KiB payloads: the second
	// batch's reply names its own 24 tuples and the first batch's 24, still
	// cached — 6 MiB of distinct tuples, which a reply carries at least once
	// each, against a 4 MiB frame cap.
	batch := func(tag byte) []wire.Step {
		steps := make([]wire.Step, 12)
		for i := range steps {
			steps[i] = wire.Step{RKey: 3, SKey: 3,
				RPayload: bytes.Repeat([]byte{'R', tag, byte(i)}, 128<<10/3), SPayload: bytes.Repeat([]byte{'S', tag, byte(i)}, 128<<10/3)}
		}
		return steps
	}
	first, big := batch(0), batch(1)
	rng := stats.NewRNG(21)
	long := genSteps(rng, 9, 23, 6, 9)
	want := direct(t, first, big, long[:5], long[5:10], long[10:15], long[15:20], long[20:])

	cl := dial(t, client.Options{Addr: srv.Addr(), Session: "chunked"})
	if _, err := cl.Ingest(first); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Ingest(big)
	if err != nil {
		t.Fatal(err)
	}
	tuples := map[[2]uint64]int{}
	for _, p := range got {
		tuples[[2]uint64{0, p.RSeq}] = len(p.RPayload)
		tuples[[2]uint64{1, p.SSeq}] = len(p.SPayload)
	}
	size := 0
	for _, n := range tuples {
		size += n
	}
	if size <= wire.MaxFramePayload {
		t.Fatalf("reply names %d bytes of distinct tuples: not a multi-frame reply", size)
	}
	if !reflect.DeepEqual(got, want[1]) {
		t.Fatalf("chunked reply: %d pairs, direct runtime %d, or contents differ", len(got), len(want[1]))
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	split := dial(t, client.Options{Addr: srv.Addr(), Session: "split", MaxBatch: 5})
	got, err = split.Ingest(long)
	if err != nil {
		t.Fatal(err)
	}
	var concat []wire.Pair
	for _, part := range want[2:] {
		concat = append(concat, part...)
	}
	if len(concat) == 0 || !reflect.DeepEqual(got, concat) {
		t.Fatalf("split Ingest: %d pairs, direct runtime %d over the same five batches, or contents differ", len(got), len(concat))
	}
	if acked := split.Acked(); acked != 5 {
		t.Fatalf("split Ingest sent %d batches, want 5", acked)
	}
}

// closeLog records, in order, the first byte of every write the client makes
// on its connection (a frame's type) and the connection's close.
type closeLog struct {
	mu     sync.Mutex
	events []int // a frame type, or -1 for the close
}

type closeConn struct {
	net.Conn
	log *closeLog
}

func (c *closeConn) Write(b []byte) (int, error) {
	if len(b) > 0 {
		c.log.mu.Lock()
		c.log.events = append(c.log.events, int(b[0]))
		c.log.mu.Unlock()
	}
	return c.Conn.Write(b)
}

func (c *closeConn) Close() error {
	c.log.mu.Lock()
	c.log.events = append(c.log.events, -1)
	c.log.mu.Unlock()
	return c.Conn.Close()
}

// TestCloseSendsGoodbye: Close writes a Goodbye frame and only then closes
// the socket, so the daemon sees a clean detach, not a dropped connection.
func TestCloseSendsGoodbye(t *testing.T) {
	srv := startDaemon(t)
	log := &closeLog{}
	cl := dial(t, client.Options{Addr: srv.Addr(), Session: "goodbye", Dialer: func(addr string) (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &closeConn{Conn: nc, log: log}, nil
	}})
	if _, err := cl.Ingest(genSteps(stats.NewRNG(3), 0, 10, 4, 3)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	n := len(log.events)
	if n < 2 || log.events[n-2] != wire.TypeGoodbye || log.events[n-1] != -1 {
		t.Fatalf("the connection's last events are %v; want a Goodbye frame (0x%02x) and then the close (-1)", log.events, wire.TypeGoodbye)
	}
}
