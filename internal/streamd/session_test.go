package streamd

import (
	"bufio"
	"bytes"
	"runtime"
	"testing"

	"stochstream/internal/engine"
	"stochstream/internal/shardrt"
	"stochstream/internal/streamd/wire"
)

// TestBatchCompletionIsOneTransition plays the two things a client that lost
// its connection mid-batch does — resend the in-flight base, and reattach one
// batch behind — in a tight loop against the session while the engine loop
// completes that batch. Whatever instant they land in, the duplicate is
// either still in flight or answered from the replay buffer, and the resume
// is either in sync or replayed the results of exactly that batch: never a
// sequence gap, never the previous batch's frame. Four keys against a
// 64-slot cache make each reply thousands of pairs, so its encode is long
// enough to land in.
func TestBatchCompletionIsOneTransition(t *testing.T) {
	s, err := Start(Config{
		Runtime: shardrt.Config{Shards: 2, TotalCache: 64, Seed: 42},
		Listen:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// resume attaches and detaches a connection that never existed on the
	// network. When the Welcome says the server is one batch ahead, the
	// frame queued behind it must be that batch's results.
	resume := func(lastSeq uint64) *session {
		c := newConn(nil, 2)
		sess, err := s.attach(wire.Hello{Session: "w", LastSeq: lastSeq}, c)
		if err != nil {
			t.Fatalf("resume at %d: %v", lastSeq, err)
		}
		s.detach(sess, c)
		_, payload, _ := framesOf((<-c.out).b).Next()
		if w, _ := wire.DecodeWelcome(payload); w.AckSeq == lastSeq {
			return sess // in sync; a frame behind this Welcome is a live delivery
		}
		_, payload, _ = framesOf((<-c.out).b).Next()
		if r, err := wire.DecodeResults(payload); err != nil || r.AckSeq != lastSeq+1 {
			t.Fatalf("resume at %d replayed the results of batch %d (%v)", lastSeq, r.AckSeq, err)
		}
		return sess
	}
	sess := resume(0)
	const nsteps = 256
	resubmitted := func(*ingestReq) error {
		t.Error("a duplicate base reached the ingest queue")
		return nil
	}
	for base := uint64(1); base <= 40; base++ {
		req := sess.takeReq() // handed back, steps cleared, when the batch completes
		req.base = base
		for i := 0; i < nsteps; i++ {
			req.steps = append(req.steps, shardrt.Step{R: engine.Tuple{Key: i % 4}, S: engine.Tuple{Key: (i + 1) % 4}})
		}
		if out, err := sess.offer(req, nil, 0, s.submit); out != outcomeAdmitted {
			t.Fatalf("batch %d not admitted: outcome %d, %v", base, out, err)
		}
		for {
			out, err := sess.offer(&ingestReq{kind: kindIngest, sess: sess, base: base}, newConn(nil, 1), 0, resubmitted)
			if err != nil {
				t.Fatalf("batch %d resent while it completes: %v", base, err)
			}
			if out == outcomeReplay {
				break
			}
			resume(base - 1)
			runtime.Gosched()
		}
	}
}

// framesOf is the frame reader over one queued frame.
func framesOf(frame []byte) *wire.FrameReader {
	return wire.NewFrameReader(bufio.NewReader(bytes.NewReader(frame)))
}
