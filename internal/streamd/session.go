package streamd

import (
	"net"
	"sync"
	"sync/atomic"
)

// session is the daemon-side state of one named client stream. Sessions
// outlive connections: a client that loses its TCP connection reattaches by
// name and resumes from the server's acknowledged batch sequence, and the
// one-batch replay buffer re-delivers the results frame a disconnect may
// have swallowed. With the client package's synchronous one-batch-in-flight
// discipline that single buffered frame always covers the gap.
type session struct {
	name string

	mu sync.Mutex
	// attached is the live connection, nil while detached. Result delivery
	// always targets the session's current attachment, not the connection
	// that submitted the batch, so results of a batch admitted just before
	// a disconnect reach the replacement connection.
	attached *conn
	// submitted is the highest batch base handed to the engine loop;
	// acked is the highest batch fully processed. submitted == acked
	// except while a batch sits in the ingest queue.
	submitted uint64
	acked     uint64
	// credits is the remaining flow-control window, in steps. Ingest
	// consumes, acknowledgment regrants; result frames carry the absolute
	// remainder so client and server cannot drift.
	credits int
	// lastSeen is the reap clock: nanos of the last frame or detach.
	lastSeen int64
	// lastBase/lastFrame are the replay buffer: the base of the last
	// acknowledged ingest batch and its complete encoded results frame. The
	// next reply is encoded over lastFrame's bytes (complete): the client's
	// next base acknowledges that it has read them.
	lastBase  uint64
	lastFrame *frame
	// req is the session's request buffer, nil while a batch is out with it
	// (takeReq to putReq): a client keeps one batch in flight, so each ingest
	// frame is decoded into the steps, cleared, the previous one left behind.
	req *ingestReq
}

// batchDisposition classifies an arriving ingest base against the session's
// sequence state. The zero value is never returned.
type batchDisposition int

const (
	// batchAdmit: next contiguous batch, hand to the engine.
	batchAdmit batchDisposition = iota + 1
	// batchReplay: duplicate of the last acknowledged batch — resend the
	// buffered results frame, do not re-ingest.
	batchReplay
	// batchInFlight: duplicate of a batch already queued for the engine —
	// drop silently, the original will deliver to the current attachment.
	batchInFlight
	// batchGap: the base skips ahead or falls behind the replay buffer;
	// unrecoverable, reject the connection.
	batchGap
)

// classify maps base onto the session's sequence state. Caller holds mu.
func (ss *session) classify(base uint64) batchDisposition {
	switch {
	case base == ss.submitted+1:
		return batchAdmit
	case base == ss.acked && base == ss.lastBase && ss.lastFrame != nil:
		return batchReplay
	case base > ss.acked && base <= ss.submitted:
		return batchInFlight
	default:
		return batchGap
	}
}

// frame is one unit of delivery — complete encoded wire frames in one byte
// slice — and the count of writer-queue entries that hold it. The count is
// what lets a session reuse its replay buffer: a frame a writer has not
// written yet (a stalled connection, a killed one whose writer is still
// flushing) is not overwritten, the reply after it gets a buffer of its own.
type frame struct {
	b []byte
	// queued is raised by trySend before the frame enters a queue and lowered
	// by the writer that took it out, written or not. Entries left in the
	// queue of a writer that has exited are never read again, and their count
	// never falls: that buffer is not reused, it is collected with the queue.
	queued atomic.Int32
}

// conn is one TCP connection's plumbing: the reader goroutine owns nc
// reads, the writer goroutine drains out, and kill tears both down
// idempotently from either side (or from Drain).
type conn struct {
	nc net.Conn
	// out carries complete encoded frames to the writer. Senders never
	// block: delivery uses a non-blocking send and treats a full buffer as
	// a slow consumer (the connection is killed rather than letting one
	// stalled reader wedge the engine loop).
	out chan *frame
	// stop is closed by kill; the writer drains queued frames, then closes
	// the socket — which is what finally unblocks the reader.
	stop     chan struct{}
	stopOnce sync.Once
}

func newConn(nc net.Conn, outDepth int) *conn {
	return &conn{nc: nc, out: make(chan *frame, outDepth), stop: make(chan struct{})}
}

// kill signals teardown from any goroutine, idempotently. Only stop is
// closed here: the writer owns the socket close so frames already queued
// (a final error or draining notice) still flush, bounded by the write
// deadline; the socket close then unblocks a reader mid-ReadFull.
func (c *conn) kill() {
	c.stopOnce.Do(func() { close(c.stop) })
}

// trySend enqueues a complete frame for the writer without blocking and
// reports whether it fit. Callers kill the connection on false. A session's
// replay buffer is sent under the session lock (attach, offer) or by the
// engine loop before its next complete, so complete never misses a send.
func (c *conn) trySend(f *frame) bool {
	f.queued.Add(1)
	select {
	case c.out <- f:
		return true
	default:
		f.queued.Add(-1)
		return false
	}
}

// sendBytes is trySend for a frame nothing else refers to.
func (c *conn) sendBytes(b []byte) bool { return c.trySend(&frame{b: b}) }
