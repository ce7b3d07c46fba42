package streamd

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"stochstream/internal/engine"
	"stochstream/internal/process"
	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
	"stochstream/internal/streamd/wire"
)

// wirePairs is a reply written out as pairs, as the client decodes it.
func wirePairs(ps []shardrt.Pair) []wire.Pair {
	out := make([]wire.Pair, len(ps))
	for i, p := range ps {
		out[i] = wire.Pair{
			RSeq: p.RSeq, SSeq: p.SSeq, RKey: int64(p.R.Key), SKey: int64(p.S.Key),
			Shard: uint16(p.Shard), SameStep: p.SameStep,
			RPayload: payloadToWire(p.R.Payload), SPayload: payloadToWire(p.S.Payload),
		}
	}
	return out
}

// TestReplyBytesAreThePairEncoders: the daemon encodes a reply straight from
// the runtime's numbered Reply, and every reply it writes is byte for byte
// wire.EncodeResultsFrames over the same reply written out as pairs, by a
// runtime of the same configuration driven directly and never restarted.
// Four shards under skewed streams step two- and one-sided steps; one batch of
// large payloads on one key takes a reply past MaxFramePayload, so it is cut
// into chunks; and halfway the daemon drains to a checkpoint and a new one
// continues from it.
func TestReplyBytesAreThePairEncoders(t *testing.T) {
	const window = 1 << 16
	rcfg := shardrt.Config{Shards: 4, TotalCache: 24, Seed: 3}
	path := filepath.Join(t.TempDir(), "daemon.ckpt")
	start := func() *Server {
		s, err := Start(Config{Runtime: rcfg, Listen: "127.0.0.1:0", Credits: window, CheckpointPath: path})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref, err := shardrt.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Shutdown()

	rng := stats.NewRNG(17)
	skewed := func(n int) []shardrt.Step {
		steps := make([]shardrt.Step, n)
		for i := range steps {
			steps[i].R = engine.Tuple{Key: rng.IntN(6), Payload: []byte{byte(i), 'r'}}
			steps[i].S = engine.Tuple{Key: rng.IntN(12), Payload: []byte{byte(i), 's'}}
			switch rng.IntN(6) {
			case 0:
				steps[i].S.Key = process.NoValue
			case 1:
				steps[i].R.Payload = nil
			}
		}
		return steps
	}
	large := make([]shardrt.Step, 6)
	for i := range large {
		p := bytes.Repeat([]byte{byte(i)}, 700<<10)
		large[i] = shardrt.Step{R: engine.Tuple{Key: 5000, Payload: p}, S: engine.Tuple{Key: 5000, Payload: p[:len(p)-1]}}
	}

	s := start()
	sess, c := attachFake(t, s, "before")
	var base uint64
	compare := func(label string, got *frame, want []shardrt.Pair) (frames int) {
		t.Helper()
		res := wire.Results{AckSeq: base, Credits: window, Pairs: wirePairs(want)}
		if !bytes.Equal(got.b, wire.EncodeResultsFrames(res)) {
			t.Fatalf("%s: the daemon's reply of %d bytes is not the pair encoder's over the runtime's %d pairs", label, len(got.b), len(want))
		}
		for rd := framesOf(got.b); ; frames++ {
			if _, _, err := rd.Next(); err != nil {
				return frames
			}
		}
	}
	ingest := func(label string, steps []shardrt.Step) int {
		t.Helper()
		base++
		submitBatch(t, s, sess, base, steps)
		got := written(c)
		want, err := ref.IngestBatch(steps)
		if err != nil {
			t.Fatal(err)
		}
		return compare(label, got, want)
	}

	for b := 0; b < 12; b++ {
		ingest("before", skewed(1+rng.IntN(40)))
	}
	// Every step of the large batch joins itself, and the steps before it.
	if frames := ingest("large", large); frames < 2 {
		t.Fatalf("the large reply travelled in %d frame: not cut into chunks", frames)
	}
	for b := 0; b < 12; b++ {
		ingest("before the drain", skewed(1+rng.IntN(40)))
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	s = start()
	defer s.Close()
	sess, c = attachFake(t, s, "after")
	base = 0
	for b := 0; b < 12; b++ {
		ingest("after the restart", skewed(1+rng.IntN(40)))
	}
}
