package streamd_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"stochstream/internal/dist"
	"stochstream/internal/flightrec"
	"stochstream/internal/process"
	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
	"stochstream/internal/streamd"
	"stochstream/internal/streamd/client"
	"stochstream/internal/telemetry"
)

// httpDaemon starts a daemon with its HTTP surface on the given runtime and
// ingests steps through one framed session, so the shards have metrics,
// spans and decision records to show.
func httpDaemon(t *testing.T, rc shardrt.Config, steps int) *streamd.Server {
	t.Helper()
	srv, err := streamd.Start(streamd.Config{Runtime: rc, Listen: "127.0.0.1:0", HTTPListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if steps > 0 {
		cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: "http", Seed: 1})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer func() { _ = cl.Close() }()
		rng := stats.NewRNG(11)
		for sent := 0; sent < steps; sent += 100 {
			if _, err := cl.Ingest(genSteps(rng, 100, 64)); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
		}
	}
	return srv
}

func httpGet(t *testing.T, url string) (status int, ctype string, body []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// decodeInto returns a check that the body is JSON of v's type, then runs
// more on the decoded value.
func decodeInto[T any](more func(t *testing.T, v T)) func(*testing.T, []byte) {
	return func(t *testing.T, body []byte) {
		t.Helper()
		var v T
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("body is not the route's JSON: %v\n%s", err, body)
		}
		if more != nil {
			more(t, v)
		}
	}
}

// contains returns a check that the body holds every line given.
func contains(lines ...string) func(*testing.T, []byte) {
	return func(t *testing.T, body []byte) {
		t.Helper()
		for _, l := range lines {
			if !strings.Contains("\n"+string(body), "\n"+l+"\n") {
				t.Errorf("body lacks the line %q:\n%s", l, body)
			}
		}
	}
}

// jsonError is the check of every refused request: a JSON {"error": ...}.
var jsonError = decodeInto(func(t *testing.T, v map[string]string) {
	if v["error"] == "" {
		t.Errorf("error body %v has no error field", v)
	}
})

type shardRow struct {
	Shard     int     `json:"shard"`
	Budget    float64 `json:"budget"`
	Steps     int64   `json:"steps"`
	Pairs     int64   `json:"pairs"`
	Evictions int64   `json:"evictions"`
}

type spanGroup struct {
	Shard int              `json:"shard"`
	Spans []flightrec.Span `json:"spans"`
}

type traceGroup struct {
	Shard int                        `json:"shard"`
	Trace []telemetry.DecisionRecord `json:"trace"`
}

// groupSizes returns a check that the groups come in shard order and that
// group i holds a number of items within [lo, hi].
func groupSizes[G any](size func(G) (shard, n int), lo, hi int) func(*testing.T, []G) {
	return func(t *testing.T, gs []G) {
		t.Helper()
		if len(gs) != 2 {
			t.Fatalf("%d shard groups, want 2", len(gs))
		}
		for i, g := range gs {
			shard, n := size(g)
			if shard != i || n < lo || n > hi {
				t.Errorf("group %d is shard %d with %d items, want shard %d with %d..%d", i, shard, n, i, lo, hi)
			}
		}
	}
}

var (
	spanSizes  = func(g spanGroup) (int, int) { return g.Shard, len(g.Spans) }
	traceSizes = func(g traceGroup) (int, int) { return g.Shard, len(g.Trace) }
)

// TestHTTPSurface is the daemon's one HTTP surface, route by route: status,
// content type and JSON shape; 400 for a malformed or negative n; 404 for a
// route whose telemetry or flight recorders the runtime was built without;
// and 404 for the routes that are gone (sessionless ingest, the bundle
// trigger, the per-shard proxy).
func TestHTTPSurface(t *testing.T) {
	const total = 16
	// Stream models make the shards' policy HEEB, whose decisions are traced.
	keys := &process.Stationary{P: dist.NewUniform(0, 63)}
	full := shardrt.Config{
		Shards: 2, TotalCache: total, Seed: 6, Telemetry: true, Flight: true,
		Procs: [2]process.Process{keys, keys},
	}
	noFlight := full
	noFlight.Flight = false
	servers := map[string]*streamd.Server{
		"full":      httpDaemon(t, full, 2000),
		"no-flight": httpDaemon(t, noFlight, 0),
		"bare":      httpDaemon(t, testRuntimeConfig(2), 0),
	}
	const (
		text = "text/plain"
		js   = "application/json"
	)
	for _, tc := range []struct {
		daemon, path string
		status       int
		ctype        string
		check        func(*testing.T, []byte)
	}{
		{"full", "/healthz", 200, text, contains("ok")},
		{"full", "/readyz", 200, text, contains("ready")},
		{"full", "/metrics", 200, "text/plain; version=0.0.4", contains(
			"shardrt_shards 2", "streamd_steps_total 2000",
			"# TYPE streamd_batch_latency_ns histogram",
			`shardrt_cache_budget{shard="0"} 8`, `shardrt_cache_budget{shard="1"} 8`)},
		{"full", "/metrics.json", 200, js, decodeInto(func(t *testing.T, v struct {
			Daemon  telemetry.Snapshot         `json:"daemon"`
			Runtime map[string]json.RawMessage `json:"runtime"`
		}) {
			var shards []telemetry.Snapshot
			if err := json.Unmarshal(v.Runtime["shards"], &shards); err != nil || len(v.Runtime) != 1 || len(shards) != 2 {
				t.Errorf("runtime snapshot keys %d, %d shards (%v): want only the 2 shards", len(v.Runtime), len(shards), err)
			}
			if v.Daemon.Counters["streamd_steps_total"] != 2000 {
				t.Errorf("daemon snapshot counts %d steps, want 2000", v.Daemon.Counters["streamd_steps_total"])
			}
		})},
		{"full", "/shards", 200, js, decodeInto(func(t *testing.T, rows []shardRow) {
			budget, steps := 0.0, int64(0)
			for i, r := range rows {
				if r.Shard != i {
					t.Errorf("row %d is shard %d", i, r.Shard)
				}
				budget += r.Budget
				steps += r.Steps
			}
			if len(rows) != 2 || budget != total || steps == 0 {
				t.Errorf("%d rows, budgets sum to %g, %d steps: want 2 rows, %d, some", len(rows), budget, steps, total)
			}
		})},
		{"full", "/spans?n=5", 200, js, decodeInto(groupSizes(spanSizes, 1, 5))},
		{"full", "/spans?n=0", 200, js, decodeInto(groupSizes(spanSizes, 0, 0))},
		{"full", "/spans", 200, js, decodeInto(groupSizes(spanSizes, 128, 128))},
		{"full", "/trace?n=1", 200, js, decodeInto(groupSizes(traceSizes, 1, 1))},
		{"full", "/trace?n=0", 200, js, decodeInto(groupSizes(traceSizes, 0, 0))},
		{"full", "/trace?n=100000", 200, js, decodeInto(groupSizes(traceSizes, 2, 512))},
		{"full", "/debug/vars", 200, js, decodeInto(func(t *testing.T, v map[string]json.RawMessage) {
			if v["memstats"] == nil {
				t.Error("expvar publishes no memstats")
			}
		})},
		{"full", "/debug/pprof/", 200, "text/html", nil},
		{"full", "/spans?n=-1", 400, js, jsonError},
		{"full", "/spans?n=x", 400, js, jsonError},
		{"full", "/trace?n=-1", 400, js, jsonError},
		{"full", "/trace?n=x", 400, js, jsonError},
		{"full", "/ingest", 404, text, nil},
		{"full", "/bundle", 404, text, nil},
		{"full", "/shard/0/metrics", 404, text, nil},
		{"no-flight", "/spans", 404, js, jsonError},
		{"no-flight", "/trace", 200, js, decodeInto(groupSizes(traceSizes, 0, 0))},
		{"no-flight", "/shards", 200, js, decodeInto(func(t *testing.T, rows []shardRow) {
			if len(rows) != 2 {
				t.Errorf("%d rows, want 2", len(rows))
			}
		})},
		{"bare", "/shards", 404, js, jsonError},
		{"bare", "/spans", 404, js, jsonError},
		{"bare", "/trace", 404, js, jsonError},
		{"bare", "/metrics", 200, "text/plain; version=0.0.4", func(t *testing.T, body []byte) {
			if strings.Contains(string(body), "shardrt_") {
				t.Errorf("a runtime without telemetry exports shard series:\n%s", body)
			}
		}},
		{"bare", "/metrics.json", 200, js, decodeInto[map[string]any](nil)},
	} {
		t.Run(tc.daemon+tc.path, func(t *testing.T) {
			status, ctype, body := httpGet(t, "http://"+servers[tc.daemon].HTTPAddr()+tc.path)
			if status != tc.status || !strings.HasPrefix(ctype, tc.ctype) {
				t.Fatalf("answered %d %q, want %d %q:\n%s", status, ctype, tc.status, tc.ctype, body)
			}
			if tc.check != nil {
				tc.check(t, body)
			}
		})
	}
}

// TestScrapeWhileIngesting scrapes every route while framed sessions ingest
// (ci.sh runs it under -race): each route must read only what is safe beside
// the engine loop, answer 200 throughout, and leave the conservation counters
// exact.
func TestScrapeWhileIngesting(t *testing.T) {
	srv := httpDaemon(t, shardrt.Config{Shards: 4, TotalCache: 32, Seed: 3, Telemetry: true, Flight: true}, 0)
	routes := []string{"/healthz", "/readyz", "/metrics", "/metrics.json", "/shards", "/spans?n=4", "/trace?n=4", "/debug/vars", "/debug/pprof/"}
	const (
		sessions = 2
		scrapers = 2
		batches  = 40
		batchLen = 32
	)
	var (
		ingesting, scraping sync.WaitGroup
		done                atomic.Bool
		sent                atomic.Int64
	)
	fail := make(chan error, sessions+scrapers)
	scrape := func() error {
		for _, r := range routes {
			resp, err := http.Get("http://" + srv.HTTPAddr() + r)
			if err != nil {
				return err
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("GET %s answered %d while ingesting", r, resp.StatusCode)
			}
		}
		return nil
	}
	// Every scraper reads every route once before any batch is sent, so each
	// read has engine writes after it.
	var firstRound sync.WaitGroup
	firstRound.Add(scrapers)
	for w := 0; w < scrapers; w++ {
		scraping.Add(1)
		go func() {
			defer scraping.Done()
			err := scrape()
			firstRound.Done()
			for err == nil && !done.Load() {
				err = scrape()
			}
			if err != nil {
				fail <- err
			}
		}()
	}
	firstRound.Wait()
	for w := 0; w < sessions; w++ {
		ingesting.Add(1)
		go func(w int) {
			defer ingesting.Done()
			cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: fmt.Sprintf("scrape-%d", w), Seed: uint64(w)})
			if err != nil {
				fail <- err
				return
			}
			defer func() { _ = cl.Close() }()
			rng := stats.NewRNG(uint64(100 + w))
			for b := 0; b < batches; b++ {
				if _, err := cl.Ingest(genSteps(rng, batchLen, 8)); err != nil {
					fail <- fmt.Errorf("session %d batch %d: %w", w, b, err)
					return
				}
				sent.Add(batchLen)
			}
		}(w)
	}
	ingesting.Wait()
	done.Store(true)
	scraping.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	if got, want := srv.Registry().Snapshot().Counters["streamd_steps_total"], sent.Load(); got != want || want != sessions*batches*batchLen {
		t.Errorf("streamd_steps_total = %d, sessions sent %d (want %d)", got, want, sessions*batches*batchLen)
	}
}
