package streamd_test

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"stochstream/internal/streamd"
	"stochstream/internal/streamd/wire"
)

// Raw-socket protocol edge tests: each drives the daemon with hand-built
// frames and pins the exact typed error code, whether the connection
// survives, and that no sequence number is consumed by a rejected exchange.

type rawConn struct {
	nc net.Conn
	rd *wire.FrameReader
}

func rawDial(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{nc: nc, rd: wire.NewFrameReader(bufio.NewReader(nc))}
}

func (r *rawConn) send(t *testing.T, typ uint8, payload []byte) {
	t.Helper()
	if _, err := r.nc.Write(wire.Frame(typ, payload)); err != nil {
		t.Fatalf("write frame 0x%02x: %v", typ, err)
	}
}

func (r *rawConn) read(t *testing.T) (uint8, []byte) {
	t.Helper()
	typ, payload, err := r.rd.Next()
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return typ, payload
}

// expectError reads one frame and requires a typed error with the code.
func (r *rawConn) expectError(t *testing.T, code uint16) wire.ErrorFrame {
	t.Helper()
	typ, payload := r.read(t)
	if typ != wire.TypeError {
		t.Fatalf("frame type 0x%02x, want error", typ)
	}
	f, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatalf("DecodeError: %v", err)
	}
	if f.Code != code {
		t.Fatalf("error code %d (%s), want %d", f.Code, f.Msg, code)
	}
	return f
}

// expectClosed requires the server side to close the connection.
func (r *rawConn) expectClosed(t *testing.T) {
	t.Helper()
	if _, _, err := r.rd.Next(); err == nil {
		t.Fatal("connection still open, expected close")
	}
}

// handshake performs the hello/welcome exchange.
func (r *rawConn) handshake(t *testing.T, session string, lastSeq uint64) wire.Welcome {
	t.Helper()
	r.send(t, wire.TypeHello, wire.EncodeHello(wire.Hello{Version: wire.Version, Session: session, LastSeq: lastSeq}))
	typ, payload := r.read(t)
	if typ != wire.TypeWelcome {
		t.Fatalf("handshake frame type 0x%02x, want welcome", typ)
	}
	w, err := wire.DecodeWelcome(payload)
	if err != nil {
		t.Fatalf("DecodeWelcome: %v", err)
	}
	return w
}

func protoServer(t *testing.T, mutate func(*streamd.Config)) *streamd.Server {
	t.Helper()
	cfg := streamd.Config{Runtime: testRuntimeConfig(2), Listen: "127.0.0.1:0"}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := streamd.Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func TestProtocolVersionMismatch(t *testing.T) {
	srv := protoServer(t, nil)
	rc := rawDial(t, srv.Addr())
	rc.send(t, wire.TypeHello, wire.EncodeHello(wire.Hello{Version: wire.Version + 1, Session: "v"}))
	rc.expectError(t, wire.CodeBadFrame)
	rc.expectClosed(t)
}

func TestProtocolFirstFrameNotHello(t *testing.T) {
	srv := protoServer(t, nil)
	rc := rawDial(t, srv.Addr())
	rc.send(t, wire.TypeIngest, wire.EncodeIngest(wire.Ingest{Base: 1}))
	rc.expectError(t, wire.CodeBadFrame)
	rc.expectClosed(t)
}

// TestProtocolUnknownFrameType: a frame type the protocol does not assign —
// 0x05, the retired Flush, among them — is a frame violation that closes the
// connection.
func TestProtocolUnknownFrameType(t *testing.T) {
	srv := protoServer(t, nil)
	for _, typ := range []uint8{0x05, 0x7F} {
		rc := rawDial(t, srv.Addr())
		rc.handshake(t, fmt.Sprintf("unknown-type-%02x", typ), 0)
		rc.send(t, typ, nil)
		rc.expectError(t, wire.CodeBadFrame)
		rc.expectClosed(t)
	}
}

func TestProtocolSeqGap(t *testing.T) {
	srv := protoServer(t, nil)
	rc := rawDial(t, srv.Addr())
	rc.handshake(t, "gap", 0)
	// Base 5 on a fresh session skips 1..4: unrecoverable, fatal.
	rc.send(t, wire.TypeIngest, wire.EncodeIngest(wire.Ingest{Base: 5, Steps: []wire.Step{{RKey: 1, SKey: 1}}}))
	rc.expectError(t, wire.CodeSeqGap)
	rc.expectClosed(t)

	// The violation consumed nothing: a fresh attach still resumes at 0.
	rc2 := rawDial(t, srv.Addr())
	if w := rc2.handshake(t, "gap", 0); w.AckSeq != 0 {
		t.Fatalf("AckSeq after rejected gap = %d, want 0", w.AckSeq)
	}
}

func TestProtocolResumeGapRefused(t *testing.T) {
	srv := protoServer(t, nil)
	// A client claiming a future resume point on a fresh session is beyond
	// the one-batch replay buffer: refused at attach.
	rc := rawDial(t, srv.Addr())
	rc.send(t, wire.TypeHello, wire.EncodeHello(wire.Hello{Version: wire.Version, Session: "resume-gap", LastSeq: 7}))
	rc.expectError(t, wire.CodeSeqGap)
	rc.expectClosed(t)
}

func TestProtocolCreditViolation(t *testing.T) {
	srv := protoServer(t, func(c *streamd.Config) { c.Credits = 8 })
	rc := rawDial(t, srv.Addr())
	if w := rc.handshake(t, "credits", 0); w.Credits != 8 {
		t.Fatalf("welcome credits = %d, want 8", w.Credits)
	}
	// 9 steps against an 8-step window: flow-control violation, fatal.
	steps := make([]wire.Step, 9)
	for i := range steps {
		steps[i] = wire.Step{RKey: 1, SKey: 1}
	}
	rc.send(t, wire.TypeIngest, wire.EncodeIngest(wire.Ingest{Base: 1, Steps: steps}))
	rc.expectError(t, wire.CodeFlowControl)
	rc.expectClosed(t)

	// Nothing was consumed: the session accepts a conforming batch next.
	rc2 := rawDial(t, srv.Addr())
	rc2.handshake(t, "credits", 0)
	rc2.send(t, wire.TypeIngest, wire.EncodeIngest(wire.Ingest{Base: 1, Steps: steps[:8]}))
	typ, payload := rc2.read(t)
	if typ != wire.TypeResults {
		t.Fatalf("frame type 0x%02x, want results", typ)
	}
	f, err := wire.DecodeResults(payload)
	if err != nil || f.AckSeq != 1 {
		t.Fatalf("results = %+v, %v; want ack 1", f, err)
	}
}

// TestProtocolOversizedPayloadRejected pins the server-side payload cap:
// a step blob over wire.MaxPayloadBytes is a recoverable bad-step
// rejection that consumes no sequence number.
func TestProtocolOversizedPayloadRejected(t *testing.T) {
	srv := protoServer(t, nil)
	rc := rawDial(t, srv.Addr())
	rc.handshake(t, "overpay", 0)
	rc.send(t, wire.TypeIngest, wire.EncodeIngest(wire.Ingest{Base: 1, Steps: []wire.Step{
		{RKey: 1, SKey: 1, RPayload: make([]byte, wire.MaxPayloadBytes+1)},
	}}))
	rc.expectError(t, wire.CodeBadStep)

	// The connection survives and the next conforming batch is sequence 1.
	rc.send(t, wire.TypeIngest, wire.EncodeIngest(wire.Ingest{Base: 1, Steps: []wire.Step{{RKey: 2, SKey: 2}}}))
	typ, payload := rc.read(t)
	if typ != wire.TypeResults {
		t.Fatalf("frame type 0x%02x, want results", typ)
	}
	f, err := wire.DecodeResults(payload)
	if err != nil || f.AckSeq != 1 {
		t.Fatalf("results = %+v, %v; want ack 1", f, err)
	}
}

func TestProtocolSessionBusy(t *testing.T) {
	srv := protoServer(t, nil)
	rc := rawDial(t, srv.Addr())
	rc.handshake(t, "busy", 0)
	rc2 := rawDial(t, srv.Addr())
	rc2.send(t, wire.TypeHello, wire.EncodeHello(wire.Hello{Version: wire.Version, Session: "busy", LastSeq: 0}))
	rc2.expectError(t, wire.CodeSessionBusy)
	rc2.expectClosed(t)

	// Releasing the first connection frees the name.
	_ = rc.nc.Close()
	for attempt := 0; ; attempt++ {
		rc3 := rawDial(t, srv.Addr())
		rc3.send(t, wire.TypeHello, wire.EncodeHello(wire.Hello{Version: wire.Version, Session: "busy", LastSeq: 0}))
		typ, _ := rc3.read(t)
		if typ == wire.TypeWelcome {
			break
		}
		if attempt > 100 {
			t.Fatal("session never released after disconnect")
		}
		_ = rc3.nc.Close()
		time.Sleep(2 * time.Millisecond)
	}
}

func TestProtocolOversizeFrameTearsDown(t *testing.T) {
	srv := protoServer(t, nil)
	rc := rawDial(t, srv.Addr())
	rc.handshake(t, "oversize", 0)
	// Header declares a payload beyond the cap: the daemon must drop the
	// connection without reading (or allocating) the body.
	hdr := []byte{wire.TypeIngest, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := rc.nc.Write(hdr); err != nil {
		t.Fatalf("write oversize header: %v", err)
	}
	rc.expectClosed(t)
}

func TestProtocolTruncatedFrameConsumesNothing(t *testing.T) {
	srv := protoServer(t, nil)
	rc := rawDial(t, srv.Addr())
	rc.handshake(t, "trunc", 0)
	// Declare 100 payload bytes, deliver 10, then half-close: the daemon
	// sees a truncated frame and tears down without consuming a sequence.
	hdr := wire.Frame(wire.TypeIngest, make([]byte, 100))[:15]
	if _, err := rc.nc.Write(hdr); err != nil {
		t.Fatalf("write truncated frame: %v", err)
	}
	if err := rc.nc.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatalf("CloseWrite: %v", err)
	}
	rc.expectClosed(t)

	rc2 := rawDial(t, srv.Addr())
	if w := rc2.handshake(t, "trunc", 0); w.AckSeq != 0 {
		t.Fatalf("AckSeq after truncated frame = %d, want 0", w.AckSeq)
	}
}

func TestProtocolMalformedIngestPayload(t *testing.T) {
	srv := protoServer(t, nil)
	rc := rawDial(t, srv.Addr())
	rc.handshake(t, "malformed", 0)
	// A well-framed payload with trailing garbage after a complete ingest.
	payload := append(wire.EncodeIngest(wire.Ingest{Base: 1, Steps: []wire.Step{{RKey: 1, SKey: 1}}}), 0xEE)
	rc.send(t, wire.TypeIngest, payload)
	rc.expectError(t, wire.CodeBadFrame)
	rc.expectClosed(t)
}

func TestProtocolGoodbyeDetachesCleanly(t *testing.T) {
	srv := protoServer(t, nil)
	rc := rawDial(t, srv.Addr())
	rc.handshake(t, "bye", 0)
	rc.send(t, wire.TypeIngest, wire.EncodeIngest(wire.Ingest{Base: 1, Steps: []wire.Step{{RKey: 2, SKey: 2}}}))
	if typ, _ := rc.read(t); typ != wire.TypeResults {
		t.Fatalf("frame type 0x%02x, want results", typ)
	}
	rc.send(t, wire.TypeGoodbye, nil)
	rc.expectClosed(t)

	// The session's resume state outlives the goodbye until its TTL.
	rc2 := rawDial(t, srv.Addr())
	if w := rc2.handshake(t, "bye", 1); w.AckSeq != 1 {
		t.Fatalf("AckSeq after goodbye = %d, want 1", w.AckSeq)
	}
}
