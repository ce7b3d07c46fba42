package streamd_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
	"stochstream/internal/streamd"
	"stochstream/internal/streamd/client"
	"stochstream/internal/streamd/wire"
)

// testRuntimeConfig is the shared runtime shape of the daemon tests: small
// cache, several shards, deterministic seed.
func testRuntimeConfig(shards int) shardrt.Config {
	return shardrt.Config{
		Shards:     shards,
		TotalCache: 64,
		Seed:       42,
	}
}

// genSteps builds a deterministic workload with enough key collisions to
// produce join pairs: keys cycle through a small domain.
func genSteps(rng *stats.RNG, n, domain int) []wire.Step {
	steps := make([]wire.Step, n)
	for i := range steps {
		steps[i] = wire.Step{
			RKey:     int64(rng.IntN(domain)),
			SKey:     int64(rng.IntN(domain)),
			RPayload: []byte{byte(i), byte(i >> 8), 'r'},
			SPayload: []byte{byte(i), byte(i >> 8), 's'},
		}
	}
	return steps
}

// toRuntimeSteps mirrors the daemon's wire-to-engine conversion for the
// direct-runtime differential oracle.
func toRuntimeSteps(in []wire.Step) []shardrt.Step {
	out := make([]shardrt.Step, len(in))
	for i, ws := range in {
		out[i] = shardrt.Step{}
		out[i].R.Key = int(ws.RKey)
		out[i].S.Key = int(ws.SKey)
		if ws.RPayload != nil {
			out[i].R.Payload = ws.RPayload
		}
		if ws.SPayload != nil {
			out[i].S.Payload = ws.SPayload
		}
	}
	return out
}

func pairKey(rseq, sseq uint64) string { return fmt.Sprintf("%d/%d", rseq, sseq) }

// wirePairsEqualRuntime checks the daemon's result stream against the
// direct runtime's, order included.
func wirePairsEqualRuntime(t *testing.T, got []wire.Pair, want []shardrt.Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("pair count = %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.RSeq != w.RSeq || g.SSeq != w.SSeq || int(g.RKey) != w.R.Key || int(g.SKey) != w.S.Key ||
			int(g.Shard) != w.Shard || g.SameStep != w.SameStep {
			t.Fatalf("pair %d = %+v, want seqs (%d,%d) keys (%d,%d) shard %d same %v",
				i, g, w.RSeq, w.SSeq, w.R.Key, w.S.Key, w.Shard, w.SameStep)
		}
	}
}

// TestEndToEnd drives one session through the framed protocol and checks
// the result stream is byte-for-byte what the runtime produces directly
// with the same batch boundaries.
func TestEndToEnd(t *testing.T) {
	srv, err := streamd.Start(streamd.Config{
		Runtime: testRuntimeConfig(4),
		Listen:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() { _ = srv.Close() }()

	rt, err := shardrt.New(testRuntimeConfig(4))
	if err != nil {
		t.Fatalf("shardrt.New: %v", err)
	}
	defer func() { _, _ = rt.Close() }()

	cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: "e2e", Seed: 7})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()

	rng := stats.NewRNG(99)
	const batches, batchLen = 20, 50
	for b := 0; b < batches; b++ {
		steps := genSteps(rng, batchLen, 16)
		got, err := cl.Ingest(steps)
		if err != nil {
			t.Fatalf("Ingest batch %d: %v", b, err)
		}
		want, err := rt.IngestBatch(toRuntimeSteps(steps))
		if err != nil {
			t.Fatalf("direct IngestBatch %d: %v", b, err)
		}
		wirePairsEqualRuntime(t, got, want)
	}
	if cl.Acked() != batches {
		t.Fatalf("Acked = %d, want %d", cl.Acked(), batches)
	}

	gotFlush, err := cl.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	wantFlush, err := rt.Flush()
	if err != nil {
		t.Fatalf("direct Flush: %v", err)
	}
	wirePairsEqualRuntime(t, gotFlush, wantFlush)
}

// TestPayloadRoundTrip pins the payload encoding: nil stays nil, empty
// stays empty, bytes echo back on both sides of every pair.
func TestPayloadRoundTrip(t *testing.T) {
	srv, err := streamd.Start(streamd.Config{
		Runtime: testRuntimeConfig(2),
		Listen:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() { _ = srv.Close() }()

	cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: "payload", Seed: 1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()

	// Same key on both sides in one step joins immediately.
	pairs, err := cl.Ingest([]wire.Step{
		{RKey: 5, SKey: 5, RPayload: []byte("left"), SPayload: nil},
	})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if len(pairs) != 1 {
		t.Fatalf("pairs = %d, want 1", len(pairs))
	}
	if string(pairs[0].RPayload) != "left" {
		t.Errorf("RPayload = %q, want left", pairs[0].RPayload)
	}
	if pairs[0].SPayload != nil {
		t.Errorf("SPayload = %v, want nil", pairs[0].SPayload)
	}
}

// TestHTTPIngest drives the HTTP/JSON route end to end: pairs match the
// direct runtime, bad requests answer typed 4xx JSON, and the conservation
// counters cover HTTP-ingested steps exactly like framed ones.
func TestHTTPIngest(t *testing.T) {
	srv, err := streamd.Start(streamd.Config{
		Runtime:    testRuntimeConfig(4),
		Listen:     "127.0.0.1:0",
		HTTPListen: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() { _ = srv.Close() }()

	rt, err := shardrt.New(testRuntimeConfig(4))
	if err != nil {
		t.Fatalf("shardrt.New: %v", err)
	}
	defer func() { _, _ = rt.Close() }()

	base := "http://" + srv.HTTPAddr()
	body := `{"steps":[{"rkey":5,"skey":5},{"rkey":5,"skey":7},{"rkey":7,"skey":5}]}`
	resp, err := http.Post(base+"/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out struct {
		Pairs []struct {
			RSeq, SSeq uint64
			RKey, SKey int64
			Shard      int
			SameStep   bool `json:"same_step"`
		} `json:"pairs"`
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	want, err := rt.IngestBatch(toRuntimeSteps([]wire.Step{
		{RKey: 5, SKey: 5},
		{RKey: 5, SKey: 7},
		{RKey: 7, SKey: 5},
	}))
	if err != nil {
		t.Fatalf("direct IngestBatch: %v", err)
	}
	if out.Count != len(want) || len(out.Pairs) != len(want) {
		t.Fatalf("count = %d (pairs %d), want %d", out.Count, len(out.Pairs), len(want))
	}
	for i, p := range out.Pairs {
		w := want[i]
		if p.RSeq != w.RSeq || p.SSeq != w.SSeq || int(p.RKey) != w.R.Key || int(p.SKey) != w.S.Key ||
			p.Shard != w.Shard || p.SameStep != w.SameStep {
			t.Fatalf("pair %d = %+v, want %+v", i, p, w)
		}
	}

	// The conservation counters cover the HTTP route.
	counters := srv.Registry().Snapshot().Counters
	if got := counters["streamd_steps_total"]; got != 3 {
		t.Errorf("streamd_steps_total = %d, want 3", got)
	}
	if got := counters["streamd_pairs_total"]; got != int64(len(want)) {
		t.Errorf("streamd_pairs_total = %d, want %d", got, len(want))
	}
	if got := counters["streamd_http_ingest_total"]; got != 1 {
		t.Errorf("streamd_http_ingest_total = %d, want 1", got)
	}

	// Malformed and empty batches answer typed 4xx JSON, consume nothing.
	for _, bad := range []string{`{"steps":[]}`, `not json`} {
		r2, err := http.Post(base+"/ingest", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatalf("POST bad body: %v", err)
		}
		_ = r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Errorf("bad body %q: status = %d, want 400", bad, r2.StatusCode)
		}
	}
	if got := srv.Registry().Snapshot().Counters["streamd_steps_total"]; got != 3 {
		t.Errorf("steps_total after rejected bodies = %d, want 3", got)
	}
}

// TestClientRespectsCreditWindow is the regression for the default-config
// flow-control mismatch: a client whose MaxBatch exceeds the server's
// credit window must split batches down to the handshake's grant instead
// of tripping the fatal ErrFlowControl rejection.
func TestClientRespectsCreditWindow(t *testing.T) {
	const window = 8
	srv, err := streamd.Start(streamd.Config{
		Runtime: testRuntimeConfig(2),
		Listen:  "127.0.0.1:0",
		Credits: window,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() { _ = srv.Close() }()

	// Default options: MaxBatch = wire.MaxBatchSteps (8192) >> window.
	cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: "window", Seed: 3})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()

	rng := stats.NewRNG(5)
	steps := genSteps(rng, 50, 8)
	got, err := cl.Ingest(steps)
	if err != nil {
		t.Fatalf("Ingest across small window: %v", err)
	}
	// The split is window-sized and deterministic: ceil(50/8) = 7 batches.
	if cl.Acked() != 7 {
		t.Fatalf("Acked = %d, want 7 window-sized batches", cl.Acked())
	}
	rt, err := shardrt.New(testRuntimeConfig(2))
	if err != nil {
		t.Fatalf("shardrt.New: %v", err)
	}
	defer func() { _, _ = rt.Close() }()
	var want []shardrt.Pair
	for i := 0; i < len(steps); i += window {
		end := i + window
		if end > len(steps) {
			end = len(steps)
		}
		ps, err := rt.IngestBatch(toRuntimeSteps(steps[i:end]))
		if err != nil {
			t.Fatalf("oracle batch at %d: %v", i, err)
		}
		want = append(want, ps...)
	}
	wirePairsEqualRuntime(t, got, want)
}

// TestChunkedResultsEndToEnd drives a payload-heavy join whose replies
// outgrow a single results frame: the daemon must chunk them (More flag)
// and the client must reassemble, staying byte-identical to the direct
// runtime with the same (size-driven) batch boundaries.
func TestChunkedResultsEndToEnd(t *testing.T) {
	srv, err := streamd.Start(streamd.Config{
		Runtime: testRuntimeConfig(2),
		Listen:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() { _ = srv.Close() }()

	cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: "chunked", Seed: 9})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()

	// Max-size payloads on one hot key: every step joins against all the
	// cached partners, so late batches reply with many ~2 MiB pairs.
	big := bytes.Repeat([]byte{0xAB}, wire.MaxPayloadBytes)
	const n = 6
	steps := make([]wire.Step, n)
	for i := range steps {
		steps[i] = wire.Step{RKey: 7, SKey: 7, RPayload: big, SPayload: big}
	}
	got, err := cl.Ingest(steps)
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}

	// The frame-size split puts one step per batch (two max-payload steps
	// overflow an ingest frame); the oracle uses the same boundaries.
	if cl.Acked() != n {
		t.Fatalf("Acked = %d, want %d single-step batches", cl.Acked(), n)
	}
	rt, err := shardrt.New(testRuntimeConfig(2))
	if err != nil {
		t.Fatalf("shardrt.New: %v", err)
	}
	defer func() { _, _ = rt.Close() }()
	var want []shardrt.Pair
	for i := range steps {
		ps, err := rt.IngestBatch(toRuntimeSteps(steps[i : i+1]))
		if err != nil {
			t.Fatalf("oracle step %d: %v", i, err)
		}
		want = append(want, ps...)
	}
	wirePairsEqualRuntime(t, got, want)
	total := 0
	for i := range got {
		if !bytes.Equal(got[i].RPayload, big) || !bytes.Equal(got[i].SPayload, big) {
			t.Fatalf("pair %d payload corrupted through chunked delivery", i)
		}
		total += len(got[i].RPayload) + len(got[i].SPayload)
	}
	if total <= wire.MaxFramePayload {
		t.Fatalf("workload produced only %d result bytes; raise n to force chunking", total)
	}
}

// TestClientRejectsOversizedPayload pins the client-side payload cap: a
// blob over wire.MaxPayloadBytes is refused before any frame is sent.
func TestClientRejectsOversizedPayload(t *testing.T) {
	srv, err := streamd.Start(streamd.Config{
		Runtime: testRuntimeConfig(2),
		Listen:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() { _ = srv.Close() }()
	cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: "overpay", Seed: 1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()
	_, err = cl.Ingest([]wire.Step{{RKey: 1, SKey: 1, SPayload: make([]byte, wire.MaxPayloadBytes+1)}})
	if !errors.Is(err, wire.ErrBadStep) {
		t.Fatalf("oversized payload: err = %v, want ErrBadStep", err)
	}
	if cl.Acked() != 0 {
		t.Fatalf("Acked after rejection = %d, want 0", cl.Acked())
	}
}

// TestBadStepRejected pins admission-time key validation: an out-of-domain
// key is rejected with ErrBadStep, consumes no sequence number, and the
// session continues on the same connection.
func TestBadStepRejected(t *testing.T) {
	srv, err := streamd.Start(streamd.Config{
		Runtime: testRuntimeConfig(2),
		Listen:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() { _ = srv.Close() }()

	cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: "badstep", Seed: 1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = cl.Close() }()

	_, err = cl.Ingest([]wire.Step{{RKey: -1 << 40, SKey: 1}})
	if !errors.Is(err, wire.ErrBadStep) {
		t.Fatalf("Ingest out-of-domain = %v, want ErrBadStep", err)
	}
	if cl.Acked() != 0 {
		t.Fatalf("Acked after rejection = %d, want 0", cl.Acked())
	}
	// The same session and connection keep working.
	pairs, err := cl.Ingest([]wire.Step{{RKey: 3, SKey: 3}})
	if err != nil {
		t.Fatalf("Ingest after rejection: %v", err)
	}
	if len(pairs) != 1 || cl.Acked() != 1 {
		t.Fatalf("pairs = %d acked = %d, want 1 and 1", len(pairs), cl.Acked())
	}
}

// TestHTTPAndWireIngestConcurrent is the regression for the HTTP-ingest data
// race: the HTTP route used to hand the runtime-owned merged-output slice to
// its handler goroutine while the engine loop went on to reuse it for the
// next request. Concurrent HTTP posts and framed sessions drive one daemon
// (run it under -race, as ci.sh's test phase does); every reply must be
// internally consistent and the conservation counters exact across both
// routes.
func TestHTTPAndWireIngestConcurrent(t *testing.T) {
	srv, err := streamd.Start(streamd.Config{
		Runtime:    testRuntimeConfig(4),
		Listen:     "127.0.0.1:0",
		HTTPListen: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() { _ = srv.Close() }()

	const (
		workers  = 2 // per route
		batches  = 40
		batchLen = 32
		domain   = 8 // few keys: replies carry many pairs, so a reused slice would show
	)
	var (
		wg                    sync.WaitGroup
		steps, pairs, http200 atomic.Int64
	)
	fail := make(chan error, 2*workers)

	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) { // framed session
			defer wg.Done()
			cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: fmt.Sprintf("wire-%d", w), Seed: uint64(w)})
			if err != nil {
				fail <- fmt.Errorf("Dial: %w", err)
				return
			}
			defer func() { _ = cl.Close() }()
			rng := stats.NewRNG(uint64(100 + w))
			for b := 0; b < batches; b++ {
				got, err := cl.Ingest(genSteps(rng, batchLen, domain))
				if err != nil {
					fail <- fmt.Errorf("wire worker %d batch %d: %w", w, b, err)
					return
				}
				for _, p := range got {
					if p.RKey != p.SKey {
						fail <- fmt.Errorf("wire worker %d: equijoin pair with keys %d/%d", w, p.RKey, p.SKey)
						return
					}
				}
				steps.Add(batchLen)
				pairs.Add(int64(len(got)))
			}
		}(w)
		go func(w int) { // HTTP route
			defer wg.Done()
			rng := stats.NewRNG(uint64(200 + w))
			for b := 0; b < batches; b++ {
				body, err := json.Marshal(map[string]interface{}{"steps": httpSteps(genSteps(rng, batchLen, domain))})
				if err != nil {
					fail <- err
					return
				}
				var out struct {
					Pairs []struct {
						RSeq, SSeq uint64
						RKey, SKey int64
					} `json:"pairs"`
					Count int `json:"count"`
				}
				for {
					resp, err := http.Post("http://"+srv.HTTPAddr()+"/ingest", "application/json", bytes.NewReader(body))
					if err != nil {
						fail <- fmt.Errorf("http worker %d batch %d: %w", w, b, err)
						return
					}
					status := resp.StatusCode
					if status == http.StatusOK {
						err = json.NewDecoder(resp.Body).Decode(&out)
					}
					_ = resp.Body.Close()
					if status == http.StatusServiceUnavailable {
						continue // shed: consumed nothing, send it again
					}
					if status != http.StatusOK || err != nil {
						fail <- fmt.Errorf("http worker %d batch %d: status %d, decode %v", w, b, status, err)
						return
					}
					break
				}
				if out.Count != len(out.Pairs) {
					fail <- fmt.Errorf("http worker %d: count %d for %d pairs", w, out.Count, len(out.Pairs))
					return
				}
				seen := make(map[string]bool, len(out.Pairs))
				for _, p := range out.Pairs {
					if p.RKey != p.SKey || seen[pairKey(p.RSeq, p.SSeq)] {
						fail <- fmt.Errorf("http worker %d: reply pair (%d,%d) keys %d/%d wrong or repeated", w, p.RSeq, p.SSeq, p.RKey, p.SKey)
						return
					}
					seen[pairKey(p.RSeq, p.SSeq)] = true
				}
				steps.Add(batchLen)
				pairs.Add(int64(len(out.Pairs)))
				http200.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Conservation across both routes: every step sent was counted once, and
	// every pair the daemon counted reached exactly one client.
	counters := srv.Registry().Snapshot().Counters
	if got, want := counters["streamd_steps_total"], steps.Load(); got != want || want != 2*workers*batches*batchLen {
		t.Errorf("streamd_steps_total = %d, clients sent %d (want %d)", got, want, 2*workers*batches*batchLen)
	}
	if got, want := counters["streamd_pairs_total"], pairs.Load(); got != want || want == 0 {
		t.Errorf("streamd_pairs_total = %d, clients received %d", got, want)
	}
	if got, want := counters["streamd_http_ingest_total"], http200.Load(); got != want {
		t.Errorf("streamd_http_ingest_total = %d, want %d", got, want)
	}
}

// httpSteps renders wire steps as the HTTP route's JSON step objects.
func httpSteps(in []wire.Step) []map[string]interface{} {
	out := make([]map[string]interface{}, len(in))
	for i, st := range in {
		out[i] = map[string]interface{}{"rkey": st.RKey, "skey": st.SKey, "rpayload": st.RPayload, "spayload": st.SPayload}
	}
	return out
}
