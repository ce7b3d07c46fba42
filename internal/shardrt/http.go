package shardrt

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"stochstream/internal/flightrec"
	"stochstream/internal/httpd"
	"stochstream/internal/telemetry"
)

// HTTP surface of the sharded runtime. Every route reads only concurrency-
// safe state — atomic telemetry handles and the mutex-protected flight
// recorders — so the handler can be scraped while the runtime is ingesting.
// Engine-level Metrics()/Snapshot() are deliberately not exposed here: they
// read unsynchronized operator state and are only safe between IngestBatch
// calls (see docs/observability.md, "Sharded snapshots").

// ShardSet returns the runtime's registries grouped for aggregated export
// (nil registries when the runtime was built without telemetry).
func (rt *Runtime) ShardSet() telemetry.ShardSet {
	set := telemetry.ShardSet{Coordinator: rt.reg}
	for _, sh := range rt.shards {
		set.Shards = append(set.Shards, sh.reg)
	}
	return set
}

// shardSpans is one shard's contribution to the aggregated /spans view.
type shardSpans struct {
	Shard int              `json:"shard"`
	Spans []flightrec.Span `json:"spans"`
}

// Handler returns the runtime's aggregated HTTP surface:
//
//	/metrics            Prometheus text exposition across all shards, each
//	                    shard's series labeled shard="<i>"; coordinator
//	                    metrics unlabeled
//	/metrics.json       structured JSON: coordinator + per-shard snapshots
//	/spans?n=K          newest K spans per shard (default 128), grouped by
//	                    shard; available when the runtime has flight
//	                    recorders
//	/shards             per-shard summary (budget, steps, pairs, evictions)
//	                    from atomic telemetry reads
//	/shard/<i>/...      shard i's own full telemetry.Handler surface
//	                    (/trace, /bundle, pprof, ...)
//
// Requires Config.Telemetry; without it every route answers 404.
func (rt *Runtime) Handler() http.Handler {
	mux := http.NewServeMux()
	if rt.reg == nil {
		mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
			httpError(w, http.StatusNotFound, "runtime built without telemetry")
		})
		return mux
	}
	set := rt.ShardSet()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		set.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, set.Snapshot())
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, req *http.Request) {
		n := 128
		if s := req.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("parameter n=%q must be a non-negative integer", s))
				return
			}
			n = v
		}
		var out []shardSpans
		for _, sh := range rt.shards {
			if sh.rec == nil {
				continue
			}
			out = append(out, shardSpans{Shard: sh.id, Spans: sh.rec.LastSpans(n)})
		}
		if out == nil {
			httpError(w, http.StatusNotFound, "runtime built without flight recorders")
			return
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/shards", func(w http.ResponseWriter, _ *http.Request) {
		type row struct {
			Shard     int     `json:"shard"`
			Budget    float64 `json:"budget"`
			Steps     int64   `json:"steps"`
			Pairs     int64   `json:"pairs"`
			Evictions int64   `json:"evictions"`
		}
		rows := make([]row, 0, len(rt.shards))
		for _, sh := range rt.shards {
			snap := sh.reg.Snapshot()
			rows = append(rows, row{
				Shard:     sh.id,
				Budget:    snap.Gauges["shardrt_cache_budget"],
				Steps:     snap.Counters["engine_steps_total"],
				Pairs:     snap.Counters["engine_pairs_total"],
				Evictions: snap.Counters["engine_evictions_total"],
			})
		}
		writeJSON(w, rows)
	})
	for _, sh := range rt.shards {
		prefix := fmt.Sprintf("/shard/%d/", sh.id)
		mux.Handle(prefix, http.StripPrefix(strings.TrimSuffix(prefix, "/"), sh.reg.Handler()))
	}
	return mux
}

// writeJSON answers v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError mirrors the telemetry package's JSON error convention.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// Serve starts the aggregated HTTP surface on addr as a managed httpd
// server (header/idle timeouts, context-driven Shutdown, joined serve
// goroutine) and returns it with the bound address (use ":0" for an
// ephemeral port). Stop it with Shutdown (graceful) or Close.
func (rt *Runtime) Serve(addr string) (*httpd.Server, string, error) {
	srv, err := httpd.Start(addr, rt.Handler())
	if err != nil {
		return nil, "", err
	}
	return srv, srv.Addr(), nil
}
