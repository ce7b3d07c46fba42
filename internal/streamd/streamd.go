// Package streamd is the network front-end of the sharded runtime: a
// long-running daemon that mounts one shardrt.Runtime behind concurrent
// client sessions speaking a length-prefixed framed protocol, plus an
// HTTP/JSON convenience route and the runtime's observability surfaces.
//
// The daemon multiplexes every session into one global ingest order — the
// runtime assigns global ingress sequence numbers at admission, so results
// are idempotent to replay and a reconnecting client dedups by sequence.
// Robustness is layered: credit-based per-session flow control bounds what
// a client may have outstanding, the admission controller sheds with typed
// ErrOverloaded (plus a retry-after hint) once the ingest queue or the
// memory watermark is crossed, per-connection read/write deadlines plus a
// session reaper bound abandoned state, and SIGTERM triggers a graceful
// drain: stop admissions, flush in-flight batches through the engine,
// write a sharded checkpoint, exit. A restarted daemon restores the
// checkpoint and continues byte-identically with an uninterrupted run —
// provided clients replay the same batch boundaries, which the synchronous
// client package guarantees (see docs/service.md).
package streamd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stochstream/internal/checkpoint"
	"stochstream/internal/engine"
	"stochstream/internal/httpd"
	"stochstream/internal/process"
	"stochstream/internal/shardrt"
	"stochstream/internal/streamd/wire"
	"stochstream/internal/telemetry"
)

// Config configures the daemon.
type Config struct {
	// Runtime configures the mounted sharded runtime.
	Runtime shardrt.Config
	// Listen is the TCP address of the framed protocol (use "127.0.0.1:0"
	// for an ephemeral port in tests).
	Listen string
	// HTTPListen, when non-empty, serves the HTTP surface (/ingest,
	// /healthz, /readyz, /metrics, /spans, ...) on this address.
	HTTPListen string
	// Credits is the per-session flow-control window in steps (default
	// 4096). Result frames carry the absolute remainder.
	Credits int
	// QueueDepth bounds the engine ingest queue in batches (default 64);
	// a full queue sheds with ErrOverloaded.
	QueueDepth int
	// MemSoftLimit, in bytes, sheds new batches while heap usage is above
	// it (0 disables memory shedding).
	MemSoftLimit uint64
	// RetryAfter is the backoff hint attached to overload rejections
	// (default 50ms).
	RetryAfter time.Duration
	// ReadTimeout is the per-frame read deadline and therefore also the
	// idle-connection bound (default 2m). WriteTimeout is the per-frame
	// write deadline (default 30s).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// SessionTTL is how long a detached session's resume state is retained
	// (default 15m); the reaper looks every reapEvery.
	SessionTTL time.Duration
	// CheckpointPath, when non-empty, is restored at startup if present
	// and written atomically during graceful drain.
	CheckpointPath string
}

func (cfg *Config) applyDefaults() {
	if cfg.Credits == 0 {
		cfg.Credits = 4096
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = 50 * time.Millisecond
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 2 * time.Minute
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.SessionTTL == 0 {
		cfg.SessionTTL = 15 * time.Minute
	}
}

const (
	// connOutDepth bounds each connection's outgoing frame buffer; a full
	// buffer marks the consumer slow and kills the connection.
	connOutDepth = 64
	// reapEvery is the reaper's cadence: it refreshes the heap watermark
	// MemSoftLimit is checked against and drops sessions idle past SessionTTL.
	reapEvery = 15 * time.Second
)

// request kinds for the engine loop.
const (
	kindIngest = iota + 1
	kindFlush
	kindHTTP
)

// engineReply answers a kindHTTP request. pairs is built on the engine loop
// and owned by the receiver: the runtime's merged output is reused by the
// next request, so nothing runtime-owned may cross the channel.
type engineReply struct {
	pairs []httpPair
	err   error
}

// ingestReq is one unit of engine-loop work. The engine loop is the only
// goroutine that touches the runtime; everything else funnels through the
// bounded ingest queue, which is also the admission controller's gauge. A
// kindIngest request is its session's buffer (session.req).
type ingestReq struct {
	kind  int
	sess  *session // kindIngest/kindFlush delivery target
	base  uint64   // kindIngest batch base
	steps []shardrt.Step
	reply chan engineReply // kindHTTP only, buffered cap 1
}

// Grow and Step make a request the sink both ingest routes decode into
// (wire.StepSink), so the key domain and the payload cap are enforced in one
// place, before any sequence number or credit is consumed.
func (r *ingestReq) Grow(n int) { r.steps = slices.Grow(r.steps, n) }

func (r *ingestReq) Step(i int, rkey, skey int64, rpayload, spayload []byte) error {
	rt, err := tupleFromWire(i, 'R', rkey, rpayload)
	if err != nil {
		return err
	}
	st, err := tupleFromWire(i, 'S', skey, spayload)
	if err != nil {
		return err
	}
	r.steps = append(r.steps, shardrt.Step{R: rt, S: st})
	return nil
}

// Server is the daemon. Start builds and runs it; Drain (or Close) stops
// it. All exported methods are safe for concurrent use.
type Server struct {
	cfg Config
	rt  *shardrt.Runtime
	ln  net.Listener
	hs  *httpd.Server
	reg *telemetry.Registry

	mu       sync.Mutex
	sessions map[string]*session
	conns    map[*conn]struct{}

	// submitMu is the drain barrier: submitters hold it shared around the
	// draining check plus queue send, Drain takes it exclusively between
	// setting draining and closing the queue, so no send can race the
	// close.
	submitMu sync.RWMutex
	draining atomic.Bool
	ingest   chan *ingestReq

	// carriers is the Results encoder's record of the tuples a frame carries.
	// The engine loop encodes every reply and is its only user.
	carriers wire.Carriers

	engineDone chan struct{}
	acceptDone chan struct{}
	reaperStop chan struct{}
	reaperDone chan struct{}
	connWG     sync.WaitGroup
	drainOnce  sync.Once
	drainErr   error

	heapBytes atomic.Uint64

	stepsTotal   *telemetry.Counter
	pairsTotal   *telemetry.Counter
	batchesTotal *telemetry.Counter
	flushesTotal *telemetry.Counter
	httpTotal    *telemetry.Counter
	dupBatches   *telemetry.Counter
	shedQueue    *telemetry.Counter
	shedMem      *telemetry.Counter
	shedSlow     *telemetry.Counter
	drainRejects *telemetry.Counter
	acceptErrs   *telemetry.Counter
	internalErrs *telemetry.Counter
	batchLatency *telemetry.Histogram
}

// nowNanos is the daemon's only wall-clock access. The value feeds
// connection deadlines, the session reaper and latency metrics — never a
// replacement decision.
func (s *Server) nowNanos() int64 {
	//lint:ignore dettaint connection deadlines, idle reaping and latency metrics only; the value never feeds a replacement decision
	return time.Now().UnixNano()
}

// Start builds the runtime (restoring a checkpoint when configured and
// present), binds the listeners and launches the daemon's goroutines.
func Start(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	rt, err := shardrt.New(cfg.Runtime)
	if err != nil {
		return nil, fmt.Errorf("streamd: runtime: %w", err)
	}
	s := &Server{
		cfg:        cfg,
		rt:         rt,
		reg:        telemetry.NewRegistry(),
		sessions:   map[string]*session{},
		conns:      map[*conn]struct{}{},
		ingest:     make(chan *ingestReq, cfg.QueueDepth),
		engineDone: make(chan struct{}),
		acceptDone: make(chan struct{}),
		reaperStop: make(chan struct{}),
		reaperDone: make(chan struct{}),
	}
	if err := s.restore(); err != nil {
		rt.Shutdown()
		return nil, err
	}
	s.initMetrics()
	s.refreshMem()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		rt.Shutdown()
		return nil, fmt.Errorf("streamd: listen %s: %w", cfg.Listen, err)
	}
	s.ln = ln
	if cfg.HTTPListen != "" {
		hs, err := httpd.Start(cfg.HTTPListen, s.httpHandler())
		if err != nil {
			_ = ln.Close()
			rt.Shutdown()
			return nil, fmt.Errorf("streamd: http listen %s: %w", cfg.HTTPListen, err)
		}
		s.hs = hs
	}
	go s.engineLoop()
	go s.acceptLoop()
	go s.reapLoop()
	return s, nil
}

func (s *Server) initMetrics() {
	s.reg.SetClock(s.nowNanos)
	s.stepsTotal = s.reg.Counter("streamd_steps_total")
	s.pairsTotal = s.reg.Counter("streamd_pairs_total")
	s.batchesTotal = s.reg.Counter("streamd_batches_total")
	s.flushesTotal = s.reg.Counter("streamd_flushes_total")
	s.httpTotal = s.reg.Counter("streamd_http_ingest_total")
	s.dupBatches = s.reg.Counter("streamd_dup_batches_total")
	s.shedQueue = s.reg.Counter("streamd_shed_queue_total")
	s.shedMem = s.reg.Counter("streamd_shed_mem_total")
	s.shedSlow = s.reg.Counter("streamd_shed_slow_total")
	s.drainRejects = s.reg.Counter("streamd_drain_rejects_total")
	s.acceptErrs = s.reg.Counter("streamd_accept_errors_total")
	s.internalErrs = s.reg.Counter("streamd_internal_errors_total")
	s.batchLatency = s.reg.Histogram("streamd_batch_latency_ns")
	s.reg.GaugeFunc("streamd_queue_depth", func() float64 { return float64(len(s.ingest)) })
	s.reg.GaugeFunc("streamd_heap_bytes", func() float64 { return float64(s.heapBytes.Load()) })
	s.reg.GaugeFunc("streamd_sessions", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.sessions))
	})
	s.reg.GaugeFunc("streamd_conns", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.conns))
	})
}

// Addr is the bound address of the framed-protocol listener.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// HTTPAddr is the bound address of the HTTP surface ("" when disabled).
func (s *Server) HTTPAddr() string {
	if s.hs == nil {
		return ""
	}
	return s.hs.Addr()
}

// Registry exposes the daemon's own telemetry registry (the runtime's
// shard registries aggregate separately under the HTTP surface).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Draining reports whether a drain has begun (readiness).
func (s *Server) Draining() bool { return s.draining.Load() }

// --- admission ------------------------------------------------------------

// submit is the admission controller: it rejects while draining, sheds on
// the memory watermark, and sheds when the bounded ingest queue is full.
// A shed batch consumed nothing — no sequence number, no credits — so the
// client's retry is exact.
func (s *Server) submit(req *ingestReq) error {
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.draining.Load() {
		s.drainRejects.Inc()
		return ErrDraining
	}
	if lim := s.cfg.MemSoftLimit; lim > 0 && s.heapBytes.Load() > lim {
		s.shedMem.Inc()
		return &OverloadError{Reason: "memory", RetryAfter: s.cfg.RetryAfter}
	}
	select {
	case s.ingest <- req:
		return nil
	default:
		s.shedQueue.Inc()
		return &OverloadError{Reason: "queue", RetryAfter: s.cfg.RetryAfter}
	}
}

// --- engine loop ----------------------------------------------------------

// engineLoop is the single consumer of the ingest queue and the only
// goroutine that drives the runtime. It exits when Drain closes the queue,
// leaving the runtime quiescent for the checkpoint.
func (s *Server) engineLoop() {
	defer close(s.engineDone)
	for req := range s.ingest {
		switch req.kind {
		case kindIngest:
			s.engineIngest(req)
		case kindFlush:
			s.engineFlush(req)
		case kindHTTP:
			rep, err := s.rt.IngestReply(req.steps)
			// The conservation counters cover every ingest route: the
			// stress and chaos gates assert steps_total equals exactly
			// what clients sent, HTTP included, and count every fault.
			var pairs []httpPair
			if err != nil {
				s.internalErrs.Inc()
			} else {
				s.stepsTotal.Add(int64(len(req.steps)))
				s.pairsTotal.Add(int64(rep.Len()))
				pairs = httpPairs(rep)
			}
			req.reply <- engineReply{pairs: pairs, err: err}
		}
	}
}

func (s *Server) engineIngest(req *ingestReq) {
	t0 := s.nowNanos()
	rep, err := s.rt.IngestReply(req.steps)
	if err != nil {
		// Steps were validated at the reader, so this is an internal
		// failure. The session is rolled back either way — nothing was
		// delivered — and the client may retry the same base: a batch the
		// runtime rejected before touching state is then ingested once, and
		// a shard fault, which did move state, is sticky in the runtime, so
		// the retry (and the drain's checkpoint) gets the same error again
		// rather than a second ingest.
		s.internalErrs.Inc()
		req.sess.failSubmitted(req, s.cfg.Credits)
		s.deliver(req.sess, &frame{b: wire.Frame(wire.TypeError, wire.EncodeError(wire.ErrorFrame{
			Code: wire.CodeInternal, Msg: err.Error(),
		}))}, false)
		return
	}
	s.stepsTotal.Add(int64(len(req.steps)))
	s.pairsTotal.Add(int64(rep.Len()))
	s.batchesTotal.Inc()
	frame := req.sess.complete(req, s.cfg.Credits, s.nowNanos(), listing{rep}, &s.carriers)
	s.deliver(req.sess, frame, true)
	s.batchLatency.Observe(float64(s.nowNanos() - t0))
}

func (s *Server) engineFlush(req *ingestReq) {
	rep, err := s.rt.FlushReply()
	if err != nil {
		s.internalErrs.Inc()
		s.deliver(req.sess, &frame{b: wire.Frame(wire.TypeError, wire.EncodeError(wire.ErrorFrame{
			Code: wire.CodeInternal, Msg: err.Error(),
		}))}, false)
		return
	}
	s.flushesTotal.Inc()
	s.pairsTotal.Add(int64(rep.Len()))
	ack, credits := req.sess.state()
	// Flush results are not buffered for replay: a flush drains carried
	// lane tails, so re-running one after reconnect yields nothing — the
	// client treats a lost flush response as an empty flush.
	s.deliver(req.sess, &frame{b: wire.AppendResultsFramesFrom(nil, wire.Results{
		AckSeq:  ack,
		Credits: uint32(credits),
		Flush:   true,
	}, listing{rep}, &s.carriers)}, true)
}

// deliver sends a frame to the session's current attachment (which may be
// a different connection than the one that submitted the batch). A full
// writer buffer marks the consumer slow and kills the connection; the
// replay buffer already holds the frame, so a synchronous client recovers
// it on reattach.
func (s *Server) deliver(ss *session, f *frame, killSlow bool) {
	target := ss.attachedConn()
	if target == nil {
		return
	}
	if !target.trySend(f) && killSlow {
		s.shedSlow.Inc()
		target.kill()
	}
}

// --- session helpers (locking lives here, one method per transition) ------

func (ss *session) attachedConn() *conn {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.attached
}

// takeReq hands out the session's request buffer, or a fresh request while
// an earlier batch still has it (a resent base racing the batch in flight).
func (ss *session) takeReq() *ingestReq {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	req := ss.req
	ss.req = nil
	if req == nil {
		req = &ingestReq{kind: kindIngest, sess: ss}
	}
	return req
}

// putReq takes a request back, its steps cleared so that an idle session
// pins no payload of its last batch. Caller holds mu.
func (ss *session) putReq(req *ingestReq) {
	clear(req.steps)
	req.steps, ss.req = req.steps[:0], req
}

// complete finishes req's batch in one transition: its credits are regranted
// (capped at the full window) and acked, lastBase and lastFrame move
// together, so no reader or reattach can see the batch acknowledged while
// the replay buffer still holds its predecessor. The results frame is
// encoded under mu because it carries the regranted credits; a join-heavy
// reply can exceed the frame payload cap, and the chunked encoding keeps
// every frame legal and replays as a unit.
//
// The frame is written over the replay buffer it replaces: the client sent
// this base, so it has read the reply before it, and the session keeps one
// reply's bytes, not one a batch. Only a queue entry no writer has finished
// with can still need the old bytes — a stalled or killed connection — and
// then this reply starts a buffer of its own and the old one goes with the
// queue. Every send of the replay buffer happens under mu or on this
// goroutine (conn.trySend), so the count read here misses none. carriers are
// the engine loop's.
func (ss *session) complete(req *ingestReq, window int, now int64, rep listing, carriers *wire.Carriers) *frame {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.lastSeen = now
	ss.credits = min(ss.credits+len(req.steps), window)
	f := ss.lastFrame
	if f == nil || f.queued.Load() != 0 {
		f = &frame{}
	}
	f.b = wire.AppendResultsFramesFrom(f.b[:0], wire.Results{AckSeq: req.base, Credits: uint32(ss.credits)}, rep, carriers)
	ss.acked, ss.lastBase, ss.lastFrame = req.base, req.base, f
	ss.putReq(req)
	return f
}

// failSubmitted undoes req's reservation — sequence number and credits, as
// offer took them — after the runtime rejected the batch without ingesting it.
func (ss *session) failSubmitted(req *ingestReq, window int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.submitted == req.base {
		ss.submitted = req.base - 1
		ss.credits = min(ss.credits+len(req.steps), window)
	}
	ss.putReq(req)
}

func (ss *session) state() (acked uint64, credits int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.acked, ss.credits
}

// ingestOutcome is the reader-side result of offering a batch.
type ingestOutcome int

const (
	outcomeAdmitted ingestOutcome = iota + 1
	outcomeReplay                 // duplicate of the acked batch: its frame is queued again
	outcomeSlow                   // the same, but the writer queue is full: kill
	outcomeDropDup                // duplicate already in flight: no response
	outcomeRejected               // err holds ErrSeqGap/ErrFlowControl/shed
)

// offer classifies req's batch and, when admissible, reserves the sequence
// number and credits atomically with the queue submit (submit runs under the
// session lock; it must not block — the admission send is non-blocking by
// construction). A request that is not admitted goes back to the session,
// unless the rejection is fatal to the connection anyway. A duplicate of the
// acknowledged batch is answered here, the replay buffer queued on c under
// the lock: were it queued after, complete could reuse the buffer in between.
func (ss *session) offer(req *ingestReq, c *conn, now int64, submit func(*ingestReq) error) (ingestOutcome, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.lastSeen = now
	base, nsteps := req.base, len(req.steps)
	switch ss.classify(base) {
	case batchReplay:
		ss.putReq(req)
		if !c.trySend(ss.lastFrame) {
			return outcomeSlow, nil
		}
		return outcomeReplay, nil
	case batchInFlight:
		ss.putReq(req)
		return outcomeDropDup, nil
	case batchGap:
		return outcomeRejected, fmt.Errorf("%w: batch base %d against submitted %d, acked %d",
			ErrSeqGap, base, ss.submitted, ss.acked)
	}
	if nsteps > ss.credits {
		return outcomeRejected, fmt.Errorf("%w: batch of %d steps exceeds remaining window %d",
			ErrFlowControl, nsteps, ss.credits)
	}
	if err := submit(req); err != nil {
		ss.putReq(req) // shed or draining: the client retries on this connection
		return outcomeRejected, err
	}
	ss.submitted = base
	ss.credits -= nsteps
	return outcomeAdmitted, nil
}

// --- accept / serve -------------------------------------------------------

// acceptLoop admits connections until the listener closes (drain) or
// fails for good. Temporary failures (EMFILE-class fd exhaustion bursts)
// are retried forever with exponential backoff, the same treatment
// net/http's Serve gives them — only a non-temporary listener error stops
// ingress, surfaced via the accept-error counter and a dead readyz.
func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	var delay time.Duration
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return
			}
			s.acceptErrs.Inc()
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() { //nolint:staticcheck // net/http's Serve does the same: Temporary is the only signal for retryable accept errors
				if delay == 0 {
					delay = 5 * time.Millisecond
				} else {
					delay *= 2
				}
				if delay > time.Second {
					delay = time.Second
				}
				time.Sleep(delay)
				continue
			}
			return
		}
		delay = 0
		s.connWG.Add(2)
		go s.serveConn(nc)
	}
}

func (s *Server) addConn(c *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns[c] = struct{}{}
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

// serveConn is the per-connection reader: handshake, then a frame loop.
// The paired writer goroutine owns the socket close; kill (reader defers
// it) signals the writer to flush queued frames and tear down.
func (s *Server) serveConn(nc net.Conn) {
	defer s.connWG.Done()
	c := newConn(nc, connOutDepth)
	s.addConn(c)
	defer s.removeConn(c)
	go s.writeLoop(c)
	defer c.kill()

	// Buffered, so that a frame that arrives whole costs one read of the
	// socket and not one for its header and one for its payload; a frame
	// larger than the buffer is read straight into the one slice the frame
	// reader keeps for them, which goes when this connection does.
	rd := wire.NewFrameReader(bufio.NewReader(&deadlineReader{s: s, nc: nc}))
	typ, payload, err := rd.Next()
	if err != nil || typ != wire.TypeHello {
		s.refuse(c, fmt.Errorf("%w: expected hello", ErrBadFrame))
		return
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		s.refuse(c, err)
		return
	}
	if hello.Version != wire.Version {
		s.refuse(c, fmt.Errorf("%w: protocol version %d, want %d", ErrBadFrame, hello.Version, wire.Version))
		return
	}
	sess, err := s.attach(hello, c)
	if err != nil {
		s.refuse(c, err)
		return
	}
	defer s.detach(sess, c)

	for {
		typ, payload, err := rd.Next()
		if err != nil {
			return // disconnect, idle timeout, or an unframeable stream
		}
		switch typ {
		case wire.TypeIngest:
			if fatal := s.handleIngestFrame(sess, c, payload); fatal {
				return
			}
		case wire.TypeFlush:
			if err := s.submit(&ingestReq{kind: kindFlush, sess: sess}); err != nil {
				s.sendErr(c, err) // shed or draining: recoverable, keep the connection
			}
		case wire.TypeGoodbye:
			return
		default:
			s.refuse(c, fmt.Errorf("%w: unexpected frame type 0x%02x", ErrBadFrame, typ))
			return
		}
	}
}

// handleIngestFrame decodes one ingest frame into the session's request and
// dedups and admits it. Returns true when the connection must close.
func (s *Server) handleIngestFrame(sess *session, c *conn, payload []byte) bool {
	req := sess.takeReq()
	var err error
	if req.base, err = wire.DecodeIngestTo(req, payload); err != nil {
		// A bad step consumed nothing and the client may continue; a frame
		// that does not decode is fatal. The half-filled request is dropped.
		s.sendErr(c, err)
		return !errors.Is(err, ErrBadStep)
	}
	outcome, err := sess.offer(req, c, s.nowNanos(), s.submit)
	switch outcome {
	case outcomeReplay:
		s.dupBatches.Inc()
		return false
	case outcomeSlow:
		s.dupBatches.Inc()
		s.shedSlow.Inc()
		c.kill()
		return true
	case outcomeDropDup:
		s.dupBatches.Inc()
		return false
	case outcomeRejected:
		s.sendErr(c, err)
		// Shed and drain rejections are retryable on the same connection;
		// sequence and flow-control violations are fatal.
		return errors.Is(err, ErrSeqGap) || errors.Is(err, ErrFlowControl)
	default:
		return false
	}
}

// refuse sends a typed error frame and lets the caller close the
// connection (fatal path).
func (s *Server) refuse(c *conn, err error) { s.sendErr(c, err) }

// sendErr encodes err as an error frame with its wire code and, for
// overloads, the retry-after hint.
func (s *Server) sendErr(c *conn, err error) {
	f := wire.ErrorFrame{Code: wire.ErrToCode(err), Msg: err.Error()}
	var ov *OverloadError
	if errors.As(err, &ov) {
		f.RetryAfterMillis = uint32(ov.RetryAfter / time.Millisecond)
	}
	c.sendBytes(wire.Frame(wire.TypeError, wire.EncodeError(f)))
}

// writeLoop drains the connection's frame buffer; on kill it flushes what
// is already queued, then closes the socket — which is what finally
// unblocks the reader. The writer always closes the socket, exactly once.
func (s *Server) writeLoop(c *conn) {
	defer s.connWG.Done()
	defer func() { _ = c.nc.Close() }()
	for {
		select {
		case f := <-c.out:
			if !s.writeOne(c, f) {
				return
			}
		case <-c.stop:
			for {
				select {
				case f := <-c.out:
					if !s.writeOne(c, f) {
						return
					}
				default:
					return
				}
			}
		}
	}
}

func (s *Server) writeOne(c *conn, f *frame) bool {
	_ = c.nc.SetWriteDeadline(time.Unix(0, s.nowNanos()).Add(s.cfg.WriteTimeout))
	_, err := c.nc.Write(f.b)
	f.queued.Add(-1) // written or not, this writer is done with the bytes
	if err != nil {
		c.kill()
		return false
	}
	return true
}

// deadlineReader arms the read deadline before every read of the socket, so a
// connection idle past ReadTimeout fails out of the frame reader and is reaped.
type deadlineReader struct {
	s  *Server
	nc net.Conn
}

func (r *deadlineReader) Read(p []byte) (int, error) {
	_ = r.nc.SetReadDeadline(time.Unix(0, r.s.nowNanos()).Add(r.s.cfg.ReadTimeout))
	return r.nc.Read(p)
}

// --- attach / detach ------------------------------------------------------

// attach claims the named session for connection c and reconciles the
// client's resume point against the server's acknowledged sequence. A
// client exactly one results frame behind gets that frame replayed; a
// larger divergence is unrecoverable and refused with ErrSeqGap.
//
// The Welcome (and any replay) frame is enqueued here, while ss.mu is still
// held: deliver() reads ss.attached under the same lock, so a resumed
// in-flight batch's results frame cannot enter the writer queue before the
// handshake frame — the client is guaranteed to see Welcome first.
func (s *Server) attach(h wire.Hello, c *conn) (*session, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	s.mu.Lock()
	ss := s.sessions[h.Session]
	if ss == nil {
		ss = &session{name: h.Session}
		s.sessions[h.Session] = ss
	}
	s.mu.Unlock()

	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.attached != nil {
		return nil, fmt.Errorf("%w: %q", ErrSessionBusy, h.Session)
	}
	var replay *frame
	switch {
	case h.LastSeq == ss.acked:
		// In sync (or resuming with an in-flight batch the engine will
		// deliver to this new attachment).
	case h.LastSeq+1 == ss.acked && ss.lastFrame != nil:
		replay = ss.lastFrame
	default:
		return nil, fmt.Errorf("%w: client resumes at %d, server acked %d (replay buffer holds only the last batch)",
			ErrSeqGap, h.LastSeq, ss.acked)
	}
	ss.attached = c
	ss.credits = s.cfg.Credits
	ss.lastSeen = s.nowNanos()
	c.sendBytes(wire.Frame(wire.TypeWelcome, wire.EncodeWelcome(wire.Welcome{
		Credits: uint32(ss.credits), AckSeq: ss.acked,
	})))
	if replay != nil {
		c.trySend(replay)
	}
	return ss, nil
}

func (s *Server) detach(ss *session, c *conn) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.attached == c {
		ss.attached = nil
		ss.lastSeen = s.nowNanos()
	}
}

// --- reaper ---------------------------------------------------------------

// reapLoop periodically refreshes the heap watermark the admission
// controller reads and drops detached sessions idle past SessionTTL.
func (s *Server) reapLoop() {
	defer close(s.reaperDone)
	t := time.NewTicker(reapEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.refreshMem()
			s.reapSessions()
		case <-s.reaperStop:
			return
		}
	}
}

func (s *Server) refreshMem() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.heapBytes.Store(ms.HeapAlloc)
}

// reapSessions deletes detached sessions whose lastSeen is older than
// SessionTTL. A client reattaching afterwards with a non-zero resume point
// is refused with ErrSeqGap — size SessionTTL beyond the client's retry
// horizon.
func (s *Server) reapSessions() {
	cutoff := s.nowNanos() - s.cfg.SessionTTL.Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.sessions))
	for name := range s.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ss := s.sessions[name]
		ss.mu.Lock()
		expired := ss.attached == nil && ss.lastSeen < cutoff
		ss.mu.Unlock()
		if expired {
			delete(s.sessions, name)
		}
	}
}

// --- drain ----------------------------------------------------------------

// Drain gracefully stops the daemon: admissions stop, the engine flushes
// every in-flight batch, a sharded checkpoint is written (when configured),
// clients get a Draining notice, and all goroutines are joined. A daemon
// restarted from the checkpoint continues byte-identically. ctx bounds the
// wait for the engine to flush.
func (s *Server) Drain(ctx context.Context) error {
	return s.drain(ctx, true)
}

// Close stops the daemon without writing a checkpoint (tests, benchmarks,
// and operators abandoning state deliberately).
func (s *Server) Close() error {
	return s.drain(context.Background(), false)
}

func (s *Server) drain(ctx context.Context, writeCkpt bool) error {
	s.drainOnce.Do(func() { s.drainErr = s.drainLocked(ctx, writeCkpt) })
	return s.drainErr
}

func (s *Server) drainLocked(ctx context.Context, writeCkpt bool) error {
	s.draining.Store(true)
	_ = s.ln.Close()
	<-s.acceptDone

	// Barrier: every in-flight submit finishes (shared lock released)
	// before the queue closes, so no send can hit a closed channel.
	s.submitMu.Lock()
	close(s.ingest)
	s.submitMu.Unlock()

	var firstErr error
	select {
	case <-s.engineDone:
	case <-ctx.Done():
		firstErr = fmt.Errorf("streamd: drain: engine flush: %w", ctx.Err())
		// The engine loop still owns the runtime: even on timeout, wait for
		// it to finish the already-admitted batches before rt.Shutdown below
		// may touch the runtime concurrently. The queue is closed, so this
		// wait is bounded by queued work; the expired context still skips
		// the checkpoint.
		<-s.engineDone
	}

	if writeCkpt && firstErr == nil && s.cfg.CheckpointPath != "" {
		if err := s.writeCheckpoint(); err != nil && firstErr == nil {
			firstErr = err
		}
	}

	s.killConns(wire.Frame(wire.TypeError, wire.EncodeError(wire.ErrorFrame{
		Code: wire.CodeDraining, Msg: ErrDraining.Error(),
	})))
	s.connWG.Wait()
	close(s.reaperStop)
	<-s.reaperDone
	s.rt.Shutdown()
	if s.hs != nil {
		if err := s.hs.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("streamd: drain: http shutdown: %w", err)
		}
	}
	return firstErr
}

// killConns notifies and tears down every live connection; the writers
// flush the notice before closing the sockets.
func (s *Server) killConns(notice []byte) {
	s.mu.Lock()
	list := make([]*conn, 0, len(s.conns))
	//lint:ignore maprange connection teardown is order-insensitive: every connection gets the same notice and kill
	for c := range s.conns {
		list = append(list, c)
	}
	s.mu.Unlock()
	for _, c := range list {
		c.sendBytes(notice)
		c.kill()
	}
}

// --- wire <-> engine conversion -------------------------------------------

// tupleFromWire checks one side of step i against the engine's key domain and
// the payload cap (the HTTP body limit alone allows blobs big enough that one
// echoed pair could overflow a results frame) and builds the runtime's tuple;
// an absent payload is a nil interface.
func tupleFromWire(i int, stream byte, key int64, payload []byte) (engine.Tuple, error) {
	if key != int64(process.NoValue) && (key < int64(engine.MinKey) || key > int64(engine.MaxKey)) {
		return engine.Tuple{}, fmt.Errorf("%w: step %d stream %c: key %d outside [%d, %d]", ErrBadStep, i, stream, key, engine.MinKey, engine.MaxKey)
	}
	if n := len(payload); n > wire.MaxPayloadBytes {
		return engine.Tuple{}, fmt.Errorf("%w: step %d stream %c payload %d bytes exceeds cap %d", ErrBadStep, i, stream, n, wire.MaxPayloadBytes)
	}
	tu := engine.Tuple{Key: int(key)}
	if payload != nil {
		tu.Payload = payload
	}
	return tu, nil
}

func payloadToWire(v interface{}) []byte {
	if b, ok := v.([]byte); ok {
		return b
	}
	return nil
}

// listing is the wire encoder's view of the runtime's reply, one pointer the
// encoder passes in a register. The runtime reuses the reply on its next
// call; the engine loop, its only driver, has encoded it by then.
type listing struct{ *shardrt.Reply }

func (l listing) Tuple(k uint32) (seq uint64, key int64, payload []byte) {
	t := l.Reply.Tuple(k)
	return t.Seq, int64(t.Key), payloadToWire(t.Payload)
}

// --- checkpoint -----------------------------------------------------------

// checkpointWire is the daemon's checkpoint envelope: the runtime's own
// sharded checkpoint plus per-session resume state, so a restarted daemon
// both continues the stream byte-identically and honors client resumes.
type checkpointWire struct {
	Version  int
	Sessions []sessionWire
	Runtime  []byte
}

type sessionWire struct {
	Name      string
	Acked     uint64
	LastBase  uint64
	LastFrame []byte
}

// checkpointVersion 2 holds its replies in wire Version 2; restore reads the
// previous version too and transcodes its replies.
const checkpointVersion = 2

// writeCheckpoint persists atomically (temp file + rename). The engine
// loop has exited and admissions are closed, so session state is stable.
func (s *Server) writeCheckpoint() error {
	var rtBuf bytes.Buffer
	if err := s.rt.Checkpoint(&rtBuf); err != nil {
		return fmt.Errorf("streamd: checkpoint: runtime: %w", err)
	}
	wire := checkpointWire{Version: checkpointVersion, Runtime: rtBuf.Bytes()}
	s.mu.Lock()
	names := make([]string, 0, len(s.sessions))
	for name := range s.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ss := s.sessions[name]
		ss.mu.Lock()
		sw := sessionWire{Name: ss.name, Acked: ss.acked, LastBase: ss.lastBase}
		if ss.lastFrame != nil {
			sw.LastFrame = ss.lastFrame.b
		}
		wire.Sessions = append(wire.Sessions, sw)
		ss.mu.Unlock()
	}
	s.mu.Unlock()

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&wire); err != nil {
		return fmt.Errorf("streamd: checkpoint: encode: %w", err)
	}
	tmp := s.cfg.CheckpointPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("streamd: checkpoint: %w", err)
	}
	if err := checkpoint.Write(f, payload.Bytes()); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("streamd: checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("streamd: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, s.cfg.CheckpointPath); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("streamd: checkpoint: %w", err)
	}
	return nil
}

// restore loads CheckpointPath when present: runtime state first (config
// fingerprint checked by shardrt), then session resume state.
func (s *Server) restore() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	f, err := os.Open(s.cfg.CheckpointPath)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("streamd: restore: %w", err)
	}
	defer func() { _ = f.Close() }()
	payload, err := checkpoint.Read(f)
	if err != nil {
		return fmt.Errorf("streamd: restore: %w", err)
	}
	var ck checkpointWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
		return fmt.Errorf("streamd: restore: decode: %w", err)
	}
	if ck.Version != checkpointVersion && ck.Version != 1 {
		return fmt.Errorf("streamd: restore: checkpoint version %d, want %d (or 1)", ck.Version, checkpointVersion)
	}
	if err := s.rt.Restore(bytes.NewReader(ck.Runtime)); err != nil {
		return fmt.Errorf("streamd: restore: runtime: %w", err)
	}
	for _, sw := range ck.Sessions {
		ss := &session{name: sw.Name, submitted: sw.Acked, acked: sw.Acked, lastBase: sw.LastBase}
		if sw.LastFrame != nil {
			b := sw.LastFrame
			if ck.Version == 1 {
				// A version 1 file holds its replies in wire Version 1.
				if b, err = wire.UpgradeResultsV1(b); err != nil {
					return fmt.Errorf("streamd: restore: session %q: last reply: %w", sw.Name, err)
				}
			}
			ss.lastFrame = &frame{b: b}
		}
		s.sessions[sw.Name] = ss
	}
	return nil
}
