package streamd_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"stochstream/internal/engine"
	"stochstream/internal/process"
	"stochstream/internal/streamd"
	"stochstream/internal/streamd/wire"
)

// TestBothIngestRoutesValidateAlike sends the same bad steps down the framed
// route and /ingest. Both feed one sink, so both must answer the same typed
// error with the same message, and nothing may have been consumed: the
// conservation counter stays at zero, and the framed session — same
// connection, still usable — then gets base 1 admitted with a batch that
// fills the whole credit window. A NoValue key is not a bad step on either.
func TestBothIngestRoutesValidateAlike(t *testing.T) {
	const window = 4
	srv, err := streamd.Start(streamd.Config{
		Runtime:    testRuntimeConfig(2),
		Listen:     "127.0.0.1:0",
		HTTPListen: "127.0.0.1:0",
		Credits:    window,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() { _ = srv.Close() }()
	rc := rawDial(t, srv.Addr())
	if w := rc.handshake(t, "alike", 0); w.Credits != window {
		t.Fatalf("handshake grants %d credits, want %d", w.Credits, window)
	}
	post := func(steps []wire.Step) (int, string) {
		t.Helper()
		body, err := json.Marshal(map[string]interface{}{"steps": httpSteps(steps)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+srv.HTTPAddr()+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /ingest: %v", err)
		}
		defer func() { _ = resp.Body.Close() }()
		var out struct{ Error string }
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out.Error
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
		name, steps := tc.name, []wire.Step{good, tc.bad}
		rc.send(t, wire.TypeIngest, wire.EncodeIngest(wire.Ingest{Base: 1, Steps: steps}))
		framed := rc.expectError(t, wire.CodeBadStep)
		status, msg := post(steps)
		if status != http.StatusBadRequest || msg != framed.Msg {
			t.Errorf("%s: /ingest answered %d %q, the framed route %q", name, status, msg, framed.Msg)
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
	if status, msg := post(full); status != http.StatusOK {
		t.Fatalf("/ingest refused NoValue keys: %d %q", status, msg)
	}
	if got := srv.Registry().Snapshot().Counters["streamd_steps_total"]; got != 2*window {
		t.Fatalf("streamd_steps_total = %d, want %d", got, 2*window)
	}
}
