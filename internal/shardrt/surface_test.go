package shardrt

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"stochstream/internal/telemetry"
)

// The daemon's HTTP surface (internal/streamd) reads a runtime only through
// ShardSet, Registry and Recorder. These tests pin what those give a scraper;
// the routes themselves are tested there.

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

// TestHandlerMetrics pins the runtime's share of /metrics and /metrics.json:
// every shard's series under its shard label, and one snapshot per shard.
// The shard count is the daemon's own gauge, not the runtime's.
func TestHandlerMetrics(t *testing.T) {
	rt := newTelemetryRuntime(t)

	var prom bytes.Buffer
	rt.ShardSet().WritePrometheus(&prom)
	body := prom.String()
	for _, want := range []string{
		`engine_steps_total{shard="0"}`,
		`engine_steps_total{shard="1"}`,
		`shardrt_cache_budget{shard="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "shardrt_shards") {
		t.Fatalf("the runtime exports the shard count itself:\n%s", body)
	}

	js, err := json.Marshal(rt.ShardSet().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(js, &keys); err != nil || len(keys) != 1 || keys["shards"] == nil {
		t.Fatalf("snapshot keys %v (%v), want only shards", keys, err)
	}
	var snap telemetry.ShardedSnapshot
	if err := json.Unmarshal(js, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Shards) != 2 {
		t.Fatalf("snapshot holds %d shards, want 2", len(snap.Shards))
	}
	if steps := snap.Shards[0].Counters["engine_steps_total"] + snap.Shards[1].Counters["engine_steps_total"]; steps == 0 {
		t.Fatal("no shard recorded any steps")
	}
}

// TestHandlerSpansAndShards pins what /spans and /shards read per shard: each
// recorder's newest spans, and budgets that sum to the total cache.
func TestHandlerSpansAndShards(t *testing.T) {
	rt := newTelemetryRuntime(t)

	total, steps := 0.0, int64(0)
	for i := 0; i < 2; i++ {
		if n := len(rt.Recorder(i).LastSpans(5)); n == 0 || n > 5 {
			t.Fatalf("shard %d returned %d spans, want 1..5", i, n)
		}
		snap := rt.Registry(i).Snapshot()
		total += snap.Gauges["shardrt_cache_budget"]
		steps += snap.Counters["engine_steps_total"]
	}
	if total != 16 {
		t.Fatalf("budgets sum to %g, want 16", total)
	}
	if steps == 0 {
		t.Fatal("no shard recorded any steps")
	}
}

// TestHandlerWithoutTelemetry pins what the routes key their 404s on: a
// runtime built without telemetry has no registries and no recorders, and
// its shard set exports nothing.
func TestHandlerWithoutTelemetry(t *testing.T) {
	rt, err := New(Config{Shards: 2, TotalCache: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for i := 0; i < 2; i++ {
		if rt.Registry(i) != nil || rt.Recorder(i) != nil {
			t.Fatalf("shard %d has a registry or recorder without telemetry", i)
		}
	}
	var prom bytes.Buffer
	rt.ShardSet().WritePrometheus(&prom)
	if prom.Len() != 0 {
		t.Fatalf("exposition without telemetry:\n%s", prom.String())
	}
	for i, snap := range rt.ShardSet().Snapshot().Shards {
		if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
			t.Fatalf("shard %d snapshot without telemetry: %+v", i, snap)
		}
	}
}
