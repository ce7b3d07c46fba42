// Package client is the synchronous Go client of the streamd framed
// protocol. It keeps exactly one batch in flight, which is what makes the
// daemon's one-frame replay buffer a complete recovery story: on any
// connection loss the client reconnects with jittered exponential backoff,
// resumes from its acknowledged batch sequence, and resends the unacked
// batch — the daemon dedups replayed sequences, so every batch is ingested
// exactly once and every results frame is recovered or replayed.
//
// The client deliberately runs zero goroutines: every call does its own
// socket I/O, so there is no state to race and no cleanup to leak. Overload
// rejections (wire.ErrOverloaded) are retried after the daemon's
// retry-after hint plus seeded jitter; retries are bounded by MaxAttempts,
// after which the typed error surfaces to the caller.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"stochstream/internal/stats"
	"stochstream/internal/streamd/wire"
)

// Options configures a Client. Addr and Session are required.
type Options struct {
	// Addr is the daemon's framed-protocol TCP address.
	Addr string
	// Session names the daemon-side resume state; reconnects under the
	// same name continue the same batch sequence.
	Session string
	// Seed drives backoff jitter deterministically (tests pin it).
	Seed uint64
	// MaxAttempts bounds retries per operation — sheds, reconnects and
	// transient failures combined (default 10).
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the jittered exponential reconnect
	// backoff (defaults 10ms and 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxBatch splits larger Ingest calls into batches of at most this
	// many steps (default and cap: wire.MaxBatchSteps). Batches are
	// additionally bounded by the server's credit window (from the
	// handshake) and by the frame payload cap, so a default client never
	// trips flow control or frame-size limits against any server. The
	// split is a pure function of the input and the server's (constant)
	// window, so replaying the same calls replays the same batch
	// boundaries — which is what the daemon's byte-identical drain/restart
	// guarantee is defined over.
	MaxBatch int
	// Dialer overrides the TCP dial — the fault-injection seam.
	Dialer func(addr string) (net.Conn, error)
}

func (o *Options) applyDefaults() error {
	if o.Addr == "" || o.Session == "" {
		return errors.New("client: Addr and Session are required")
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 10
	}
	if o.BaseBackoff == 0 {
		o.BaseBackoff = 10 * time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = time.Second
	}
	if o.MaxBatch == 0 || o.MaxBatch > wire.MaxBatchSteps {
		o.MaxBatch = wire.MaxBatchSteps
	}
	if o.Dialer == nil {
		o.Dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return nil
}

// Client is a synchronous streamd session. Not safe for concurrent use —
// one goroutine, one client, exactly one batch in flight.
type Client struct {
	opt Options
	rng *stats.RNG

	nc net.Conn
	// rd frames nc; a payload it returns is a view that dies at the next
	// read, and every decoder below copies out what the caller gets.
	rd      *wire.FrameReader
	acked   uint64 // highest batch base the server acknowledged
	credits int    // absolute remaining window, from the last frame
	closed  bool
	// frame is the ingest frame of the batch in flight, encoded once and
	// resent as is on every retry. With one batch in flight and no goroutine
	// of its own, the client is the buffer's only user, so the next batch
	// simply overwrites it; nothing handed to the caller points into it.
	frame []byte
}

// Dial validates options and connects, performing the session handshake
// (with backoff retries on transient failures).
func Dial(opt Options) (*Client, error) {
	if err := opt.applyDefaults(); err != nil {
		return nil, err
	}
	c := &Client{opt: opt, rng: stats.NewRNG(opt.Seed)}
	if err := c.withRetries("dial", func() error { return c.connect() }); err != nil {
		return nil, err
	}
	return c, nil
}

// Acked returns the highest batch base the server has acknowledged.
func (c *Client) Acked() uint64 { return c.acked }

// connect dials and handshakes; on success the connection is attached and
// any replayed results frame is left buffered for the next read loop.
func (c *Client) connect() error {
	c.dropConn()
	nc, err := c.opt.Dialer(c.opt.Addr)
	if err != nil {
		return &transientError{err: fmt.Errorf("client: dial %s: %w", c.opt.Addr, err)}
	}
	hello := wire.EncodeHello(wire.Hello{Version: wire.Version, Session: c.opt.Session, LastSeq: c.acked})
	if _, err := nc.Write(wire.Frame(wire.TypeHello, hello)); err != nil {
		_ = nc.Close()
		return &transientError{err: fmt.Errorf("client: hello: %w", err)}
	}
	rd := wire.NewFrameReader(bufio.NewReader(nc))
	typ, payload, err := rd.Next()
	if err != nil {
		_ = nc.Close()
		return &transientError{err: fmt.Errorf("client: handshake read: %w", err)}
	}
	switch typ {
	case wire.TypeWelcome:
		w, err := wire.DecodeWelcome(payload)
		if err != nil {
			_ = nc.Close()
			return fmt.Errorf("client: welcome: %w", err)
		}
		c.nc, c.rd = nc, rd
		c.credits = int(w.Credits)
		return nil
	case wire.TypeError:
		f, err := wire.DecodeError(payload)
		_ = nc.Close()
		if err != nil {
			return fmt.Errorf("client: handshake error frame: %w", err)
		}
		cause := wire.CodeToErr(f.Code)
		if isRetryableCode(f.Code) {
			return &transientError{err: fmt.Errorf("client: attach refused: %w", cause), hint: f.RetryAfter()}
		}
		return fmt.Errorf("client: attach refused: %w", cause)
	default:
		_ = nc.Close()
		return fmt.Errorf("%w: handshake frame type 0x%02x", wire.ErrBadFrame, typ)
	}
}

func (c *Client) dropConn() {
	if c.nc != nil {
		_ = c.nc.Close()
		c.nc, c.rd = nil, nil
	}
}

// transientError marks a failure worth a backoff retry; hint, when set,
// overrides the exponential schedule (the daemon's retry-after).
type transientError struct {
	err  error
	hint time.Duration
}

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// isRetryableCode: overload and drain clear on their own; a busy session
// clears when the previous connection's deadline reaps it.
func isRetryableCode(code uint16) bool {
	return code == wire.CodeOverloaded || code == wire.CodeDraining || code == wire.CodeSessionBusy
}

// backoff sleeps the jittered exponential delay for attempt (0-based); a
// non-zero hint replaces the exponential base, keeping the jitter.
func (c *Client) backoff(attempt int, hint time.Duration) {
	d := c.opt.BaseBackoff << uint(attempt)
	if hint > 0 {
		d = hint
	}
	if d > c.opt.MaxBackoff {
		d = c.opt.MaxBackoff
	}
	// Full jitter in [d/2, d): desynchronizes a fleet of clients retrying
	// against the same overloaded daemon.
	time.Sleep(d/2 + time.Duration(c.rng.Float64()*float64(d/2)))
}

// withRetries runs op until it succeeds, fails permanently, or exhausts
// MaxAttempts; transient failures back off between attempts.
func (c *Client) withRetries(what string, op func() error) error {
	var last error
	for attempt := 0; attempt < c.opt.MaxAttempts; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		var tr *transientError
		if !errors.As(err, &tr) {
			return err
		}
		last = err
		c.backoff(attempt, tr.hint)
	}
	return fmt.Errorf("client: %s: attempts exhausted: %w", what, last)
}

// Ingest runs steps through the daemon, splitting into batches bounded by
// MaxBatch, the server's credit window and the frame payload cap, and
// returns the join pairs in the daemon's deterministic merge order. Each
// batch survives disconnects, sheds and daemon restarts: the client
// reconnects, resumes, and resends until acknowledged.
//
// The returned pairs belong to the caller: they are decoded straight into
// the returned slice, alias neither steps nor any buffer the client reuses,
// and stay intact across later calls and Close. Pairs that name one tuple
// share its payload bytes — writing to one pair's payload writes them all —
// and a pair's payloads sit in at most two allocations, so retaining one pair
// retains at most two pairs' payloads of the rest of the reply. steps is not
// retained.
func (c *Client) Ingest(steps []wire.Step) ([]wire.Pair, error) {
	if c.closed {
		return nil, wire.ErrClosed
	}
	for i := range steps {
		if n := len(steps[i].RPayload); n > wire.MaxPayloadBytes {
			return nil, fmt.Errorf("%w: step %d stream R payload %d bytes exceeds cap %d", wire.ErrBadStep, i, n, wire.MaxPayloadBytes)
		}
		if n := len(steps[i].SPayload); n > wire.MaxPayloadBytes {
			return nil, fmt.Errorf("%w: step %d stream S payload %d bytes exceeds cap %d", wire.ErrBadStep, i, n, wire.MaxPayloadBytes)
		}
	}
	var out []wire.Pair
	for len(steps) > 0 {
		n := c.nextBatchLen(steps)
		pairs, err := c.ingestBatch(out, steps[:n])
		if err != nil {
			return out, err
		}
		out = pairs
		steps = steps[n:]
	}
	return out, nil
}

// nextBatchLen is how many leading steps the next batch takes: at most
// MaxBatch, at most the server's credit window (the daemon treats an
// overrun as a fatal flow-control violation, so the split must respect the
// handshake's grant), and no more than fits one ingest frame. With the
// one-batch-in-flight discipline the window is fully regranted by every
// acknowledgment, so the split is deterministic across replays against the
// same server configuration.
func (c *Client) nextBatchLen(steps []wire.Step) int {
	limit := c.opt.MaxBatch
	if c.credits > 0 && c.credits < limit {
		limit = c.credits
	}
	if limit > len(steps) {
		limit = len(steps)
	}
	n, size := 0, wire.IngestHeaderSize
	for n < limit {
		sz := wire.StepSize(&steps[n])
		if n > 0 && size+sz > wire.MaxFramePayload {
			break
		}
		size += sz
		n++
	}
	return n
}

// ingestBatch drives one batch (base = acked+1) to acknowledgment and returns
// out extended by its pairs. On error out is returned as it came: an attempt
// that failed midway through a chunked reply leaves nothing behind.
func (c *Client) ingestBatch(out []wire.Pair, steps []wire.Step) ([]wire.Pair, error) {
	base := c.acked + 1
	c.frame = wire.AppendIngestFrame(c.frame[:0], wire.Ingest{Base: base, Steps: steps})
	pairs := out
	err := c.withRetries("ingest", func() error {
		if c.nc == nil {
			if err := c.connect(); err != nil {
				return err
			}
		}
		if c.acked >= base {
			// The reconnect handshake replayed the acknowledgment (the
			// results frame consumed below before we got to resend).
			return nil
		}
		if _, err := c.nc.Write(c.frame); err != nil {
			c.dropConn()
			return &transientError{err: fmt.Errorf("client: ingest write: %w", err)}
		}
		p, err := c.await(out, base, false)
		if err != nil {
			return err
		}
		pairs = p
		return nil
	})
	return pairs, err
}

// await reads frames until the reply it is waiting for is complete — the
// acknowledgment of batch base, or with flush set the response to a Flush —
// decoding chunked replies (More flag) onto the end of acc, and returns the
// extended listing. Anything else on the stream is a leftover of an earlier
// attempt and is skipped: a stale flush response, or results replayed for an
// already-acknowledged batch, recognized by their sequence — the dedup half
// of retry safety.
func (c *Client) await(acc []wire.Pair, base uint64, flush bool) ([]wire.Pair, error) {
	what := "ingest"
	if flush {
		what = "flush"
	}
	for {
		typ, payload, err := c.rd.Next()
		if err != nil {
			c.dropConn()
			return nil, &transientError{err: fmt.Errorf("client: %s read: %w", what, err)}
		}
		switch typ {
		case wire.TypeResults:
			f, err := wire.AppendResults(acc, payload)
			if err != nil {
				c.dropConn()
				return nil, fmt.Errorf("client: %s results: %w", what, err)
			}
			if f.Flush != flush || (!flush && f.AckSeq < base) {
				continue // chunks included; acc keeps its length
			}
			if !flush && f.AckSeq > base {
				c.dropConn()
				return nil, fmt.Errorf("%w: server acked %d, expected %d", wire.ErrSeqGap, f.AckSeq, base)
			}
			acc = f.Pairs
			if f.More {
				continue // the reply completes when More clears
			}
			if !flush {
				c.acked = base
			}
			c.credits = int(f.Credits)
			return acc, nil
		case wire.TypeError:
			f, err := wire.DecodeError(payload)
			if err != nil {
				c.dropConn()
				return nil, fmt.Errorf("client: error frame: %w", err)
			}
			cause := wire.CodeToErr(f.Code)
			if f.Code == wire.CodeOverloaded || f.Code == wire.CodeDraining {
				// Shed before any state was consumed: the same request retries.
				return nil, &transientError{err: cause, hint: f.RetryAfter()}
			}
			// BadStep and protocol violations are the caller's bug.
			return nil, fmt.Errorf("client: %s rejected: %w", what, cause)
		default:
			c.dropConn()
			return nil, fmt.Errorf("%w: unexpected frame type 0x%02x", wire.ErrBadFrame, typ)
		}
	}
}

// Flush asks the daemon to step what it routed and has not stepped, and
// returns the resulting pairs. Every batch is stepped before its reply, so
// that is nothing, except right after the daemon restored an old-format
// checkpoint that carried lane tails. A flush response lost to a disconnect
// is not replayed: the retry re-flushes, and what is stepped yields nothing
// again — callers treat Flush as at-least-once with possible loss of the
// pair listing, or flush only at stream end over a live connection.
func (c *Client) Flush() ([]wire.Pair, error) {
	if c.closed {
		return nil, wire.ErrClosed
	}
	frame := wire.Frame(wire.TypeFlush, nil)
	var pairs []wire.Pair
	err := c.withRetries("flush", func() error {
		if c.nc == nil {
			if err := c.connect(); err != nil {
				return err
			}
		}
		if _, err := c.nc.Write(frame); err != nil {
			c.dropConn()
			return &transientError{err: fmt.Errorf("client: flush write: %w", err)}
		}
		p, err := c.await(nil, 0, true)
		if err != nil {
			return err
		}
		pairs = p
		return nil
	})
	return pairs, err
}

// Close detaches cleanly (best-effort goodbye) and releases the
// connection. The daemon retains the session's resume state until its TTL.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.nc != nil {
		_, _ = c.nc.Write(wire.Frame(wire.TypeGoodbye, nil))
		err := c.nc.Close()
		c.nc, c.rd = nil, nil
		return err
	}
	return nil
}
