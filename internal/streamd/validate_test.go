package streamd_test

import (
	"testing"

	"stochstream/internal/engine"
	"stochstream/internal/process"
	"stochstream/internal/streamd"
	"stochstream/internal/streamd/wire"
)

// TestBothIngestRoutesValidateAlike sends bad steps down the framed route (the
// name is from when a sessionless HTTP route fed the same sink). The sink
// checks each step as it is decoded, so each batch must answer the typed
// bad-step error and consume nothing: the conservation counter stays at zero,
// and the session — same connection, still usable — then gets base 1 admitted
// with a batch that fills the whole credit window. A NoValue key is not a bad
// step.
func TestBothIngestRoutesValidateAlike(t *testing.T) {
	const window = 4
	srv, err := streamd.Start(streamd.Config{
		Runtime: testRuntimeConfig(2),
		Listen:  "127.0.0.1:0",
		Credits: window,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() { _ = srv.Close() }()
	rc := rawDial(t, srv.Addr())
	if w := rc.handshake(t, "validate", 0); w.Credits != window {
		t.Fatalf("handshake grants %d credits, want %d", w.Credits, window)
	}

	big := make([]byte, wire.MaxPayloadBytes+1)
	good := wire.Step{RKey: 3, SKey: 3}
	for _, tc := range []struct {
		name string
		bad  wire.Step
	}{
		// MinKey-1 is NoValue itself, which is not a bad key.
		{"R key below MinKey", wire.Step{RKey: int64(engine.MinKey) - 2, SKey: 1}},
		{"S key above MaxKey", wire.Step{RKey: 1, SKey: int64(engine.MaxKey) + 1}},
		{"R payload over cap", wire.Step{RKey: 1, SKey: 1, RPayload: big}},
		{"S payload over cap", wire.Step{RKey: 1, SKey: 1, SPayload: big}},
	} {
		rc.send(t, wire.TypeIngest, wire.EncodeIngest(wire.Ingest{Base: 1, Steps: []wire.Step{good, tc.bad}}))
		if f := rc.expectError(t, wire.CodeBadStep); f.Msg == "" {
			t.Errorf("%s: the bad-step error carries no message", tc.name)
		}
	}
	if got := srv.Registry().Snapshot().Counters["streamd_steps_total"]; got != 0 {
		t.Fatalf("streamd_steps_total = %d after nothing but rejected batches", got)
	}

	// Sequence and credits are where the handshake left them.
	full := []wire.Step{good, {RKey: int64(process.NoValue), SKey: 3}, {RKey: 3, SKey: int64(process.NoValue)}, good}
	rc.send(t, wire.TypeIngest, wire.EncodeIngest(wire.Ingest{Base: 1, Steps: full}))
	typ, payload := rc.read(t)
	if typ != wire.TypeResults {
		t.Fatalf("a full-window batch at base 1 after the rejections: frame type 0x%02x, want results", typ)
	}
	if res, err := wire.DecodeResults(payload); err != nil || res.AckSeq != 1 || res.Credits != window {
		t.Fatalf("results %+v (err %v), want AckSeq 1 and the whole window of %d regranted", res, err, window)
	}
	if got := srv.Registry().Snapshot().Counters["streamd_steps_total"]; got != window {
		t.Fatalf("streamd_steps_total = %d, want %d", got, window)
	}
}
