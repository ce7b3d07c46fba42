package streamd

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"stochstream/internal/flightrec"
	"stochstream/internal/telemetry"
)

// httpHandler is the process's one HTTP surface; every route is served once.
// The health routes make the daemon deployable behind ordinary load-balancer
// and scrape infrastructure, and the rest let an operator read the runtime
// without a debugger:
//
//	GET /healthz        200 while the process serves
//	GET /readyz         200 until drain begins, then 503
//	GET /metrics        daemon + per-shard Prometheus exposition
//	GET /metrics.json   combined JSON snapshot
//	GET /shards         per-shard budget, steps, pairs and evictions
//	GET /spans?n=K      each shard's newest K flight-recorder spans (default 128)
//	GET /trace?n=K      each shard's newest K decision records (default 32)
//	/debug/vars, /debug/pprof/*  expvar and runtime profiling
//
// Every route reads only what is safe while the engine loop ingests: atomic
// registry snapshots and the mutex-guarded recorders and trace rings. The
// engine-level Metrics stay off this surface — they read operator state that
// only the engine loop may touch. A malformed or negative n answers 400; a
// runtime built without telemetry (/shards, /trace) or flight recorders
// (/spans) answers 404 on the routes that need them.
func (s *Server) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			httpJSONError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.reg.WritePrometheus(w)
		s.rt.ShardSet().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{
			"daemon":  s.reg.Snapshot(),
			"runtime": s.rt.ShardSet().Snapshot(),
		})
	})
	mux.HandleFunc("/shards", func(w http.ResponseWriter, _ *http.Request) {
		if s.rt.Registry(0) == nil {
			httpJSONError(w, http.StatusNotFound, "runtime built without telemetry")
			return
		}
		type row struct {
			Shard     int     `json:"shard"`
			Budget    float64 `json:"budget"`
			Steps     int64   `json:"steps"`
			Pairs     int64   `json:"pairs"`
			Evictions int64   `json:"evictions"`
		}
		rows := make([]row, s.cfg.Runtime.Shards)
		for i := range rows {
			snap := s.rt.Registry(i).Snapshot()
			rows[i] = row{
				Shard:     i,
				Budget:    snap.Gauges["shardrt_cache_budget"],
				Steps:     snap.Counters["engine_steps_total"],
				Pairs:     snap.Counters["engine_pairs_total"],
				Evictions: snap.Counters["engine_evictions_total"],
			}
		}
		writeJSON(w, rows)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, req *http.Request) {
		if s.rt.Recorder(0) == nil {
			httpJSONError(w, http.StatusNotFound, "runtime built without flight recorders")
			return
		}
		n, ok := queryN(w, req, 128)
		if !ok {
			return
		}
		type group struct {
			Shard int              `json:"shard"`
			Spans []flightrec.Span `json:"spans"`
		}
		out := make([]group, s.cfg.Runtime.Shards)
		for i := range out {
			out[i] = group{Shard: i, Spans: s.rt.Recorder(i).LastSpans(n)}
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		if s.rt.Registry(0) == nil {
			httpJSONError(w, http.StatusNotFound, "runtime built without telemetry")
			return
		}
		n, ok := queryN(w, req, 32)
		if !ok {
			return
		}
		type group struct {
			Shard int                        `json:"shard"`
			Trace []telemetry.DecisionRecord `json:"trace"`
		}
		out := make([]group, s.cfg.Runtime.Shards)
		for i := range out {
			out[i] = group{Shard: i, Trace: s.rt.Registry(i).Trace().Last(n)}
		}
		writeJSON(w, out)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// queryN resolves the n=K parameter of /spans and /trace: absent is def, and
// anything but a non-negative integer answers 400 (n=0 is an empty window).
func queryN(w http.ResponseWriter, req *http.Request, def int) (int, bool) {
	q := req.URL.Query().Get("n")
	if q == "" {
		return def, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		httpJSONError(w, http.StatusBadRequest, fmt.Sprintf("parameter n=%q must be a non-negative integer", q))
		return 0, false
	}
	return n, true
}

// writeJSON answers v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
