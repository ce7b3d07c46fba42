package streamd_test

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"stochstream/internal/httpd"
	"stochstream/internal/shardrt"
	"stochstream/internal/stats"
	"stochstream/internal/streamd"
	"stochstream/internal/streamd/client"
)

// spawnSites are the product's goroutine bodies: the runtime's shard helper, the
// daemon's engine, accept and reaper loops, its per-connection reader and
// writer, and the managed HTTP server's serve goroutine. A goroutine running
// one of them after its owner stopped is a leak.
var spawnSites = []string{
	"stochstream/internal/shardrt.(*Runtime).help(",
	"stochstream/internal/streamd.(*Server).engineLoop(",
	"stochstream/internal/streamd.(*Server).acceptLoop(",
	"stochstream/internal/streamd.(*Server).reapLoop(",
	"stochstream/internal/streamd.(*Server).serveConn(",
	"stochstream/internal/streamd.(*Server).writeLoop(",
	"stochstream/internal/httpd.(*Server).run(",
}

// goroutines returns every goroutine's stack, keyed by its header line
// ("goroutine N [state]:" without the state), which names it uniquely for the
// life of the process.
func goroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(g, " [")
		out[id] = g
	}
	return out
}

// leaked returns the stacks, among goroutines absent from before, that run a
// product spawn site.
func leaked(before map[string]string) []string {
	var out []string
	for id, stack := range goroutines() {
		if _, old := before[id]; old {
			continue
		}
		for _, site := range spawnSites {
			if strings.Contains(stack, site) {
				out = append(out, stack)
				break
			}
		}
	}
	return out
}

// expectRunning fails unless every site in want runs on a goroutine started
// since before: a renamed spawn site would otherwise make expectNoLeak pass
// vacuously.
func expectRunning(t *testing.T, before map[string]string, want []string) {
	t.Helper()
	running := strings.Join(leaked(before), "\n\n")
	for _, site := range want {
		if !strings.Contains(running, site) {
			t.Fatalf("no goroutine runs %s before the stop", site)
		}
	}
}

// expectNoLeak polls, for a bounded time, until no goroutine started since
// before runs a spawn site; stop methods may return a moment before the last
// goroutine they released has unwound.
func expectNoLeak(t *testing.T, what string, before map[string]string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		left := leaked(before)
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutine(s) outlive the stop:\n%s", what, len(left), strings.Join(left, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func runtimeSteps(n int) []shardrt.Step {
	return toRuntimeSteps(genSteps(stats.NewRNG(3), n, 8))
}

// TestNoGoroutineOutlivesStop pins the termination contract of every product
// spawn site: once its owner's stop method returns, each goroutine it started
// is gone. It covers the sharded runtime's Close and Shutdown, the managed
// HTTP server's Close with a keep-alive connection open, and the daemon's
// Close and Drain with framed clients and the HTTP surface still connected.
// The runtime starts its helpers only where there is a second P to run them,
// so the test runs at GOMAXPROCS ≥ 2.
func TestNoGoroutineOutlivesStop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	t.Run("runtime-close", func(t *testing.T) {
		before := goroutines()
		rt, err := shardrt.New(testRuntimeConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.IngestBatch(runtimeSteps(32)); err != nil {
			t.Fatal(err)
		}
		expectRunning(t, before, spawnSites[:1])
		if _, err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		expectNoLeak(t, "shardrt.Runtime.Close", before)
	})

	t.Run("runtime-shutdown", func(t *testing.T) {
		before := goroutines()
		rt, err := shardrt.New(testRuntimeConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.IngestBatch(runtimeSteps(32)); err != nil {
			t.Fatal(err)
		}
		expectRunning(t, before, spawnSites[:1])
		rt.Shutdown()
		expectNoLeak(t, "shardrt.Runtime.Shutdown", before)
	})

	t.Run("httpd-close", func(t *testing.T) {
		before := goroutines()
		hs, err := httpd.Start("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("ok"))
		}))
		if err != nil {
			t.Fatal(err)
		}
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		resp, err := (&http.Client{Transport: tr}).Get("http://" + hs.Addr() + "/")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close() // the connection stays open, idle, in the transport's pool
		expectRunning(t, before, spawnSites[6:])
		if err := hs.Close(); err != nil {
			t.Fatal(err)
		}
		expectNoLeak(t, "httpd.Server.Close", before)
	})

	for _, stop := range []struct {
		name string
		stop func(*streamd.Server) error
	}{
		{"daemon-close", (*streamd.Server).Close},
		{"daemon-drain", func(s *streamd.Server) error { return s.Drain(context.Background()) }},
	} {
		t.Run(stop.name, func(t *testing.T) {
			before := goroutines()
			srv, err := streamd.Start(streamd.Config{
				Runtime:    testRuntimeConfig(4),
				Listen:     "127.0.0.1:0",
				HTTPListen: "127.0.0.1:0",
			})
			if err != nil {
				t.Fatal(err)
			}
			// Two framed clients, each with a batch acknowledged, left
			// connected through the stop.
			for i, name := range []string{"leak-a", "leak-b"} {
				cl, err := client.Dial(client.Options{Addr: srv.Addr(), Session: name, Seed: uint64(i + 1)})
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = cl.Close() }()
				if _, err := cl.Ingest(genSteps(stats.NewRNG(uint64(i+5)), 16, 8)); err != nil {
					t.Fatal(err)
				}
			}
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			// A scrape leaves a keep-alive connection idle in the pool.
			resp, err := (&http.Client{Transport: tr}).Get("http://" + srv.HTTPAddr() + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /metrics answered %d", resp.StatusCode)
			}
			expectRunning(t, before, spawnSites)
			if err := stop.stop(srv); err != nil {
				t.Fatal(err)
			}
			expectNoLeak(t, "streamd."+stop.name, before)
		})
	}
}
