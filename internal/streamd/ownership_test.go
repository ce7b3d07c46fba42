package streamd

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"stochstream/internal/engine"
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
	case frame := <-c.out:
		typ, payload, err := framesOf(frame).Next()
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
	if out, _, err := sess.offer(req, 0, s.submit); out != outcomeAdmitted {
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
