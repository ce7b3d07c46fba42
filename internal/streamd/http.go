package streamd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"stochstream/internal/shardrt"
	"stochstream/internal/streamd/wire"
)

// HTTP surface of the daemon. /ingest is a sessionless convenience route —
// synchronous, sequence-tagged like the framed protocol, but without the
// resume/replay machinery (a client that needs retry safety uses the framed
// protocol). The health and observability routes make the daemon deployable
// behind ordinary load-balancer and scrape infrastructure:
//
//	POST /ingest    JSON batch in, JSON pairs out; 503 + Retry-After on shed
//	GET  /healthz   200 while the process serves
//	GET  /readyz    200 until drain begins, then 503
//	GET  /metrics   daemon + per-shard Prometheus exposition
//	GET  /metrics.json  combined JSON snapshot
//	/spans, /shards, /shard/<i>/...  delegated to the runtime's handler
type httpIngestRequest struct {
	Steps []httpStep `json:"steps"`
}

type httpStep struct {
	RKey     int64  `json:"rkey"`
	SKey     int64  `json:"skey"`
	RPayload []byte `json:"rpayload,omitempty"`
	SPayload []byte `json:"spayload,omitempty"`
}

type httpPair struct {
	RSeq     uint64 `json:"rseq"`
	SSeq     uint64 `json:"sseq"`
	RKey     int64  `json:"rkey"`
	SKey     int64  `json:"skey"`
	Shard    int    `json:"shard"`
	SameStep bool   `json:"same_step"`
	RPayload []byte `json:"rpayload,omitempty"`
	SPayload []byte `json:"spayload,omitempty"`
}

type httpIngestResponse struct {
	Pairs []httpPair `json:"pairs"`
	Count int        `json:"count"`
}

func (s *Server) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.httpIngest)
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
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]interface{}{
			"daemon":  s.reg.Snapshot(),
			"runtime": s.rt.ShardSet().Snapshot(),
		})
	})
	// The runtime's own aggregated surface (spans, per-shard registries).
	rth := s.rt.Handler()
	mux.Handle("/spans", rth)
	mux.Handle("/shards", rth)
	mux.Handle("/shard/", rth)
	return mux
}

// httpIngest runs one batch through the engine loop synchronously. It
// shares the framed protocol's admission control: a shed request answers
// 503 with a Retry-After header and consumes nothing.
func (s *Server) httpIngest(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		httpJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var in httpIngestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, wire.MaxFramePayload))
	if err := dec.Decode(&in); err != nil {
		httpJSONError(w, http.StatusBadRequest, fmt.Sprintf("decode: %v", err))
		return
	}
	if len(in.Steps) == 0 {
		httpJSONError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(in.Steps) > wire.MaxBatchSteps {
		httpJSONError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d steps exceeds cap %d", len(in.Steps), wire.MaxBatchSteps))
		return
	}
	r := &ingestReq{kind: kindHTTP, reply: make(chan engineReply, 1)}
	r.Grow(len(in.Steps))
	for i, st := range in.Steps {
		if err := r.Step(i, st.RKey, st.SKey, st.RPayload, st.SPayload); err != nil {
			httpJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	if err := s.submit(r); err != nil {
		status := http.StatusServiceUnavailable
		var ov *OverloadError
		if errors.As(err, &ov) {
			w.Header().Set("Retry-After", strconv.FormatFloat(ov.RetryAfter.Seconds(), 'f', 3, 64))
		}
		httpJSONError(w, status, err.Error())
		return
	}
	rep := <-r.reply
	if rep.err != nil {
		httpJSONError(w, http.StatusInternalServerError, rep.err.Error())
		return
	}
	s.httpTotal.Inc()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(httpIngestResponse{Pairs: rep.pairs, Count: len(rep.pairs)})
}

// httpPairs converts the runtime's reply into the HTTP reply's pairs. It runs
// on the engine loop, the one goroutine allowed to read that runtime-owned
// view; the result is a fresh slice the handler goroutine can own (payload
// bytes are immutable once ingested, so sharing them is safe).
func httpPairs(rep *shardrt.Reply) []httpPair {
	out := make([]httpPair, rep.Len())
	for i := range out {
		rn, sn, shard, sameStep := rep.Pair(i)
		r, s := rep.Tuple(rn), rep.Tuple(sn)
		out[i] = httpPair{
			RSeq: r.Seq, SSeq: s.Seq,
			RKey: int64(r.Key), SKey: int64(s.Key),
			Shard: int(shard), SameStep: sameStep,
			RPayload: payloadToWire(r.Payload),
			SPayload: payloadToWire(s.Payload),
		}
	}
	return out
}

func httpJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
