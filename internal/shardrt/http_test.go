package shardrt

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stochstream/internal/telemetry"
)

func newTelemetryRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt, err := New(Config{
		Shards: 2, TotalCache: 16, Procs: trendProcs(), Seed: 6,
		Telemetry: true, Flight: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	ingestAll(t, rt, genSteps(8, 300), 50)
	return rt
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec, rec.Body.String()
}

func TestHandlerMetrics(t *testing.T) {
	rt := newTelemetryRuntime(t)
	h := rt.Handler()

	rec, body := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d\n%s", rec.Code, body)
	}
	for _, want := range []string{
		`engine_steps_total{shard="0"}`,
		`engine_steps_total{shard="1"}`,
		`shardrt_cache_budget{shard="0"}`,
		"shardrt_shards 2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	rec, body = get(t, h, "/metrics.json")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics.json: %d", rec.Code)
	}
	var snap telemetry.ShardedSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if snap.Coordinator == nil || len(snap.Shards) != 2 {
		t.Fatalf("/metrics.json shape: coordinator %v, %d shards", snap.Coordinator != nil, len(snap.Shards))
	}
	if steps := snap.Shards[0].Counters["engine_steps_total"] + snap.Shards[1].Counters["engine_steps_total"]; steps == 0 {
		t.Fatal("/metrics.json: no shard recorded any steps")
	}
}

func TestHandlerSpansAndShards(t *testing.T) {
	rt := newTelemetryRuntime(t)
	h := rt.Handler()

	rec, body := get(t, h, "/spans?n=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("/spans: %d\n%s", rec.Code, body)
	}
	var groups []struct {
		Shard int               `json:"shard"`
		Spans []json.RawMessage `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &groups); err != nil {
		t.Fatalf("/spans: %v", err)
	}
	if len(groups) != 2 {
		t.Fatalf("/spans groups %d, want 2", len(groups))
	}
	for _, g := range groups {
		if len(g.Spans) == 0 || len(g.Spans) > 5 {
			t.Fatalf("shard %d returned %d spans, want 1..5", g.Shard, len(g.Spans))
		}
	}
	if rec, _ := get(t, h, "/spans?n=bogus"); rec.Code != http.StatusBadRequest {
		t.Fatalf("/spans?n=bogus: %d, want 400", rec.Code)
	}

	rec, body = get(t, h, "/shards")
	if rec.Code != http.StatusOK {
		t.Fatalf("/shards: %d", rec.Code)
	}
	var rows []struct {
		Shard  int     `json:"shard"`
		Budget float64 `json:"budget"`
		Steps  int64   `json:"steps"`
	}
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("/shards: %v", err)
	}
	total := 0.0
	for i, r := range rows {
		if r.Shard != i {
			t.Fatalf("/shards out of order: %+v", rows)
		}
		total += r.Budget
	}
	if total != 16 {
		t.Fatalf("/shards budgets sum to %g, want 16", total)
	}

	// Per-shard drill-down proxies to the shard registry's own handler.
	rec, body = get(t, h, "/shard/1/metrics")
	if rec.Code != http.StatusOK || !strings.Contains(body, "engine_steps_total") {
		t.Fatalf("/shard/1/metrics: %d\n%s", rec.Code, body)
	}
}

func TestHandlerWithoutTelemetry(t *testing.T) {
	rt, err := New(Config{Shards: 2, TotalCache: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, path := range []string{"/metrics", "/metrics.json", "/spans", "/shards"} {
		if rec, _ := get(t, rt.Handler(), path); rec.Code != http.StatusNotFound {
			t.Fatalf("%s without telemetry: %d, want 404", path, rec.Code)
		}
	}
}

func TestServe(t *testing.T) {
	rt := newTelemetryRuntime(t)
	srv, addr, err := rt.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics over TCP: %d", resp.StatusCode)
	}
}
