package streamd

import (
	"bufio"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"stochstream/internal/shardrt"
	"stochstream/internal/streamd/wire"
)

// countingConn counts the reads of the connection that returned bytes.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// TestOneReadPerFrame: the connection reader buffers, so an ingest frame that
// arrives whole costs one read of the socket (the parent commit read the
// 5-byte header and the payload separately: two), and one that arrives in two
// segments costs two. Either way the batch is served.
func TestOneReadPerFrame(t *testing.T) {
	s, err := Start(Config{Runtime: shardrt.Config{Shards: 2, TotalCache: 8, Seed: 1}, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client, server := net.Pipe()
	defer client.Close()
	_ = client.SetDeadline(time.Now().Add(10 * time.Second))
	cc := &countingConn{Conn: server}
	s.connWG.Add(2)
	go s.serveConn(cc)

	replies := wire.NewFrameReader(bufio.NewReader(client))
	// exchange writes one frame in the given segments and returns the reply's
	// type and how many reads the server took for it.
	exchange := func(segments ...[]byte) (uint8, int64) {
		t.Helper()
		before := cc.reads.Load()
		for _, seg := range segments {
			if _, err := client.Write(seg); err != nil {
				t.Fatal(err)
			}
		}
		typ, _, err := replies.Next()
		if err != nil {
			t.Fatal(err)
		}
		return typ, cc.reads.Load() - before
	}
	hello := wire.Frame(wire.TypeHello, wire.EncodeHello(wire.Hello{Version: wire.Version, Session: "reads"}))
	if typ, _ := exchange(hello); typ != wire.TypeWelcome {
		t.Fatalf("handshake answered with frame type 0x%02x", typ)
	}
	batch := func(base uint64) []byte {
		steps := make([]wire.Step, 32)
		for i := range steps {
			steps[i] = wire.Step{RKey: int64(i % 5), SKey: int64(i % 3)}
		}
		return wire.AppendIngestFrame(nil, wire.Ingest{Base: base, Steps: steps})
	}
	whole := batch(1)
	if typ, reads := exchange(whole); typ != wire.TypeResults || reads != 1 {
		t.Fatalf("a %d-byte frame written whole: reply type 0x%02x after %d reads, want results after 1", len(whole), typ, reads)
	}
	split := batch(2)
	if typ, reads := exchange(split[:len(split)/2], split[len(split)/2:]); typ != wire.TypeResults || reads != 2 {
		t.Fatalf("a frame written in two segments: reply type 0x%02x after %d reads, want results after 2", typ, reads)
	}
}
