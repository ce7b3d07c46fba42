package streamd

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"stochstream/internal/engine"
	"stochstream/internal/join"
	"stochstream/internal/policy"
	"stochstream/internal/shardrt"
	"stochstream/internal/streamd/wire"
)

// The session's request buffer: who holds it when, what it keeps, and that a
// batch the runtime rejects gives back everything its admission took.

// attachFake attaches a connection that never existed on the network; the
// session's frames queue up in its out channel, Welcome first.
func attachFake(t *testing.T, s *Server, name string) (*session, *conn) {
	t.Helper()
	c := newConn(nil, 8)
	sess, err := s.attach(wire.Hello{Session: name}, c)
	if err != nil {
		t.Fatal(err)
	}
	if typ, _ := nextFrame(t, c); typ != wire.TypeWelcome {
		t.Fatalf("first frame of the session is 0x%02x, want welcome", typ)
	}
	return sess, c
}

func nextFrame(t *testing.T, c *conn) (uint8, []byte) {
	t.Helper()
	select {
	case f := <-c.out:
		b := bytes.Clone(f.b)
		f.queued.Add(-1) // what the writer does once the bytes are on the socket
		typ, payload, err := framesOf(b).Next()
		if err != nil {
			t.Fatal(err)
		}
		return typ, payload
	case <-time.After(10 * time.Second):
		t.Fatal("no frame from the engine loop")
		return 0, nil
	}
}

// submitBatch admits one batch of the given steps through the session's
// request buffer, the way the connection reader does.
func submitBatch(t *testing.T, s *Server, sess *session, base uint64, steps []shardrt.Step) {
	t.Helper()
	req := sess.takeReq()
	if len(req.steps) != 0 {
		t.Fatalf("batch %d: the request buffer came back holding %d steps", base, len(req.steps))
	}
	req.base = base
	req.steps = append(req.steps, steps...)
	if out, err := sess.offer(req, nil, 0, s.submit); out != outcomeAdmitted {
		t.Fatalf("batch %d not admitted: outcome %d, %v", base, out, err)
	}
}

// TestFailedSubmitReturnsCredits: a batch the runtime rejects was never
// ingested, so the session must be exactly where it was before the offer —
// sequence number and credit window — and the retry of the same base, a whole
// window long, is admitted. (The reader validates every step, so only a
// runtime fault rejects an admitted batch; a key the sink would have refused
// stands in for one.) The parent commit rolled back the sequence number only:
// the window stayed short by the batch and the retry died on ErrFlowControl.
func TestFailedSubmitReturnsCredits(t *testing.T) {
	const window = 8
	s, err := Start(Config{Runtime: shardrt.Config{Shards: 2, TotalCache: 8, Seed: 1}, Listen: "127.0.0.1:0", Credits: window})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess, c := attachFake(t, s, "fail")
	snapshot := func() (submitted uint64, credits int) {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		return sess.submitted, sess.credits
	}
	submitted0, credits0 := snapshot()

	bad := make([]shardrt.Step, window)
	for i := range bad {
		bad[i] = shardrt.Step{R: engine.Tuple{Key: engine.MaxKey + 1}, S: engine.Tuple{Key: i}}
	}
	submitBatch(t, s, sess, 1, bad)
	typ, payload := nextFrame(t, c)
	if f, err := wire.DecodeError(payload); typ != wire.TypeError || err != nil || f.Code != wire.CodeInternal {
		t.Fatalf("rejected batch answered with frame 0x%02x %+v (%v), want an internal error", typ, f, err)
	}
	if submitted, credits := snapshot(); submitted != submitted0 || credits != credits0 {
		t.Fatalf("after the rejection: submitted %d, window %d; before the offer: %d, %d", submitted, credits, submitted0, credits0)
	}

	good := make([]shardrt.Step, window)
	for i := range good {
		good[i] = shardrt.Step{R: engine.Tuple{Key: i % 3}, S: engine.Tuple{Key: i % 2}}
	}
	submitBatch(t, s, sess, 1, good)
	typ, payload = nextFrame(t, c)
	if res, err := wire.DecodeResults(payload); typ != wire.TypeResults || err != nil || res.AckSeq != 1 || res.Credits != window {
		t.Fatalf("the retry answered with frame 0x%02x %+v (%v), want results acking 1 with the whole window", typ, res, err)
	}
}

// panicOn is RAND until its nth decision, which panics.
type panicOn struct {
	policy.Rand
	n int
}

func (p *panicOn) Evict(st *join.State, candidates []join.Tuple, n int) []int {
	if p.n--; p.n == 0 {
		panic("injected policy fault")
	}
	return p.Rand.Evict(st, candidates, n)
}

// TestShardFaultRefusesTheRetry: a shard fault, unlike a rejected batch, has
// moved state — the other shard stepped — so the
// session is rolled back only for the client to see the same internal error
// again: the runtime refuses the retry instead of ingesting the batch twice,
// no step is counted, no engine steps, and a drain returns the fault and
// leaves the previous checkpoint file as it was. At the parent commit the
// retry was answered with results and the healthy shard stepped twice over.
// The fault is sticky, so a flush after it fails too; the batch, its retry
// and the flush each count once in streamd_internal_errors_total, which the
// conservation gates read.
func TestShardFaultRefusesTheRetry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "daemon.ckpt")
	cfg := func(faultAt int) Config {
		return Config{Listen: "127.0.0.1:0", CheckpointPath: path, Runtime: shardrt.Config{
			Shards: 2, TotalCache: 4, Seed: 1, NewPolicy: func(shard int) join.Policy {
				if shard == 0 {
					return &panicOn{n: faultAt}
				}
				return &policy.Rand{}
			}}}
	}
	batch := make([]shardrt.Step, 64)
	for i := range batch {
		batch[i] = shardrt.Step{R: engine.Tuple{Key: i % 16}, S: engine.Tuple{Key: (i + 5) % 16}}
	}

	healthy, err := Start(cfg(0))
	if err != nil {
		t.Fatal(err)
	}
	sess, c := attachFake(t, healthy, "before")
	submitBatch(t, healthy, sess, 1, batch)
	if typ, _ := nextFrame(t, c); typ != wire.TypeResults {
		t.Fatalf("healthy batch answered with frame 0x%02x, want results", typ)
	}
	if err := healthy.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s, err := Start(cfg(3))
	if err != nil {
		t.Fatal(err)
	}
	sess, c = attachFake(t, s, "after")
	steps0, errs0 := s.stepsTotal.Value(), s.internalErrs.Value()
	var stepped [2]int
	for attempt := 0; attempt < 2; attempt++ {
		submitBatch(t, s, sess, 1, batch)
		typ, payload := nextFrame(t, c)
		if f, err := wire.DecodeError(payload); typ != wire.TypeError || err != nil || f.Code != wire.CodeInternal {
			t.Fatalf("attempt %d answered with frame 0x%02x %+v (%v), want an internal error", attempt, typ, f, err)
		}
		// The engine loop has answered and is idle: the runtime is quiescent.
		for i, sm := range s.rt.Metrics().Shards {
			if attempt == 1 && sm.Engine.Steps != stepped[i] {
				t.Fatalf("the retry stepped shard %d: %d steps, %d after the fault", i, sm.Engine.Steps, stepped[i])
			}
			stepped[i] = sm.Engine.Steps
		}
	}
	if got := s.stepsTotal.Value(); got != steps0 {
		t.Fatalf("streamd_steps_total moved from %d to %d over a faulted batch and its retry", steps0, got)
	}
	if got := s.internalErrs.Value() - errs0; got != 2 {
		t.Fatalf("streamd_internal_errors_total counted %d of a faulted batch and its retry, want 2", got)
	}
	if err := s.Drain(context.Background()); err == nil {
		t.Fatal("drain of a faulted runtime reported success")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, ckpt) {
		t.Fatalf("the drain rewrote the checkpoint file (%v): diverged state must not replace the last good one", err)
	}
}

// trackedBatch builds n steps on keys nothing else uses, each arrival carrying
// a finalizer-tracked payload; in its own frame so that the caller holds no
// reference once the batch has been submitted.
//
//go:noinline
func trackedBatch(n int, freed *atomic.Int64) []shardrt.Step {
	type tracked struct{ _ [64]byte }
	mk := func() *tracked {
		p := new(tracked)
		runtime.SetFinalizer(p, func(*tracked) { freed.Add(1) })
		return p
	}
	steps := make([]shardrt.Step, n)
	for i := range steps {
		steps[i] = shardrt.Step{R: engine.Tuple{Key: 1000 + i, Payload: mk()}, S: engine.Tuple{Key: 2000 + i, Payload: mk()}}
	}
	return steps
}

// TestIdleSessionPinsNoPayload: a session decodes every batch into the one
// request it owns, and between batches that request must hold capacity only.
// A 64-step batch carries 128 tracked payloads; the two-step batches after it
// evict those tuples from the 8-slot caches and never write the request's
// later positions again. Every payload must be collectable, the buffer the
// session got back zero over its whole capacity, and it must be the same
// buffer every time.
func TestIdleSessionPinsNoPayload(t *testing.T) {
	s, err := Start(Config{Runtime: shardrt.Config{Shards: 2, TotalCache: 8, Seed: 1}, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess, c := attachFake(t, s, "idle")
	const long = 64
	var freed atomic.Int64
	submitBatch(t, s, sess, 1, trackedBatch(long, &freed))
	nextFrame(t, c)
	first := sess.req
	for base := uint64(2); base <= 60; base++ {
		k := int(base)
		submitBatch(t, s, sess, base, []shardrt.Step{
			{R: engine.Tuple{Key: 2 * k}, S: engine.Tuple{Key: 2 * k}},
			{R: engine.Tuple{Key: 2*k + 1}, S: engine.Tuple{Key: 2*k + 1}},
		})
		nextFrame(t, c) // the batch is complete: the request is back with the session
		if sess.req != first {
			t.Fatalf("batch %d: the session holds request %p, want the one it started with (%p)", base, sess.req, first)
		}
	}
	if got := cap(first.steps); got < long {
		t.Fatalf("the request buffer has room for %d steps after a batch of %d", got, long)
	}
	for i, st := range first.steps[:cap(first.steps)] {
		if st != (shardrt.Step{}) {
			t.Fatalf("the idle session's request keeps %+v at position %d", st, i)
		}
	}
	for cycle := 0; cycle < 10 && freed.Load() < 2*long; cycle++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	if got := freed.Load(); got != 2*long {
		t.Fatalf("%d of %d payloads of the long batch were collected; the rest are still reachable from the daemon", got, 2*long)
	}
}

// The replay buffer: one reply's bytes a session, written over by the next
// reply unless a writer still has them.

// freshBatch builds n steps whose two arrivals share a key nothing before
// used: each step joins itself and nothing cached, so every batch of n gets a
// reply of the same length.
func freshBatch(base uint64, n int) []shardrt.Step {
	steps := make([]shardrt.Step, n)
	for i := range steps {
		k := int(base)*n + i
		steps[i] = shardrt.Step{R: engine.Tuple{Key: k}, S: engine.Tuple{Key: k}}
	}
	return steps
}

// written takes the next queued frame off c the way the writer does — the
// bytes are on the socket, the queue entry is gone — and returns the frame.
// It waits without a timer: the caller may be counting allocations.
func written(c *conn) *frame {
	f := <-c.out
	f.queued.Add(-1)
	return f
}

// TestReplyEncodedOverReplayBuffer: in the steady state — one connection, its
// writer keeping up — every reply of a session is the same frame and, once
// one reply has sized it, the same bytes: the daemon allocates nothing a
// batch, let alone a reply.
func TestReplyEncodedOverReplayBuffer(t *testing.T) {
	s, err := Start(Config{Runtime: shardrt.Config{Shards: 2, TotalCache: 16, Seed: 1}, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess, c := attachFake(t, s, "steady")
	const n = 32
	base := uint64(0)
	batches := make([][]shardrt.Step, 64)
	for i := range batches {
		batches[i] = freshBatch(uint64(i+1), n)
	}
	next := func() *frame {
		base++
		submitBatch(t, s, sess, base, batches[base-1])
		return written(c)
	}
	first := next()
	size, at := len(first.b), &first.b[0]
	if res, err := wire.DecodeResults(first.b[5:]); err != nil || len(res.Pairs) != n {
		t.Fatalf("reply 1: %d pairs (%v), want the batch's %d same-step pairs", len(res.Pairs), err, n)
	}
	for base < 8 {
		f := next()
		if f != first || &f.b[0] != at || len(f.b) != size {
			t.Fatalf("reply %d is frame %p, %d bytes at %p; reply 1 was %p, %d bytes at %p", base, f, len(f.b), &f.b[0], first, size, at)
		}
		if res, err := wire.DecodeResults(f.b[5:]); err != nil || res.AckSeq != base {
			t.Fatalf("reply %d acknowledges %d (%v)", base, res.AckSeq, err)
		}
	}
	if allocs := testing.AllocsPerRun(40, func() { next() }); allocs != 0 {
		t.Errorf("a batch whose reply fits the replay buffer allocates %.2f objects in the daemon, want 0", allocs)
	}
}

// TestReplayBufferNotReusedWhileQueued: a reply some writer has not finished
// with is never written over. First a stalled connection: replies parked in
// its queue keep their bytes while later batches complete into buffers of
// their own. Then a killed one, its writer blocked in the middle of reply N
// on a socket nobody reads, while the client resumes on a new connection —
// the replay there and the reply to batch N+1 must leave the bytes the old
// writer is still sending alone (under -race a reuse is a reported race; the
// bytes are also compared). Once every writer is done with a buffer it is the
// replay buffer again.
func TestReplayBufferNotReusedWhileQueued(t *testing.T) {
	s, err := Start(Config{Runtime: shardrt.Config{Shards: 2, TotalCache: 16, Seed: 1}, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 32
	ackOf := func(f *frame) uint64 {
		t.Helper()
		res, err := wire.DecodeResults(f.b[5:])
		if err != nil || len(res.Pairs) != n {
			t.Fatalf("a queued reply no longer decodes to its %d pairs: %d, %v", n, len(res.Pairs), err)
		}
		return res.AckSeq
	}

	// Stalled: three replies wait in the queue, nobody writes them.
	sess, stalled := attachFake(t, s, "stalled")
	for base := uint64(1); base <= 3; base++ {
		submitBatch(t, s, sess, base, freshBatch(base, n))
	}
	for s.batchesTotal.Value() < 3 {
		runtime.Gosched()
	}
	var parked [3]*frame
	for i := range parked {
		parked[i] = <-stalled.out // still counted as queued: the writer never got to it
		if got := ackOf(parked[i]); got != uint64(i+1) {
			t.Fatalf("queue entry %d acknowledges batch %d", i+1, got)
		}
		for _, earlier := range parked[:i] {
			if earlier == parked[i] || &earlier.b[0] == &parked[i].b[0] {
				t.Fatalf("reply %d was encoded over a reply still in the writer's queue", i+1)
			}
		}
	}

	// Killed mid-write: a real writer on a pipe whose far end reads the
	// Welcome and then only the first bytes of reply 1.
	near, far := net.Pipe()
	defer far.Close()
	dead := newConn(near, 8)
	s.connWG.Add(1)
	go s.writeLoop(dead)
	sess, err = s.attach(wire.Hello{Session: "killed"}, dead)
	if err != nil {
		t.Fatal(err)
	}
	rd := wire.NewFrameReader(bufio.NewReaderSize(far, 16))
	if typ, _, err := rd.Next(); err != nil || typ != wire.TypeWelcome {
		t.Fatalf("handshake on the pipe: frame 0x%02x, %v", typ, err)
	}
	submitBatch(t, s, sess, 1, freshBatch(1, n))
	var head [5]byte
	if _, err := io.ReadFull(far, head[:]); err != nil { // the writer is now inside Write(reply 1)
		t.Fatal(err)
	}
	dead.kill()
	s.detach(sess, dead)

	resumed := newConn(nil, 8)
	if _, err := s.attach(wire.Hello{Session: "killed", LastSeq: 0}, resumed); err != nil {
		t.Fatal(err)
	}
	written(resumed) // Welcome
	replayed := written(resumed)
	if got := ackOf(replayed); got != 1 {
		t.Fatalf("the resume replayed batch %d", got)
	}
	want := bytes.Clone(replayed.b)
	submitBatch(t, s, sess, 2, freshBatch(2, n))
	second := written(resumed)
	if second == replayed || &second.b[0] == &replayed.b[0] {
		t.Fatal("reply 2 was encoded over reply 1 while the killed connection's writer was still sending it")
	}
	rest := make([]byte, len(want)-len(head))
	if _, err := io.ReadFull(far, rest); err != nil {
		t.Fatal(err)
	}
	if got := append(head[:], rest...); !bytes.Equal(got, want) {
		t.Fatal("the killed connection's writer sent bytes of a later reply")
	}
	if got := ackOf(second); got != 2 {
		t.Fatalf("reply 2 acknowledges batch %d", got)
	}
	submitBatch(t, s, sess, 3, freshBatch(3, n))
	if third := written(resumed); third != second {
		t.Fatal("reply 3 has a frame of its own although every writer was done with reply 2's")
	}
}
