package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"stochstream/internal/streamd/client"
	"stochstream/internal/streamd/wire"
)

// syncBuffer lets the test read run's output while run is writing it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitForAddr polls the daemon's startup lines for the address bound by the
// listener whose line starts with prefix.
func waitForAddr(t *testing.T, out *syncBuffer, prefix string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return strings.TrimSpace(rest)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon never printed %q; output:\n%s", prefix, out.String())
	return ""
}

// TestRunDrainOnSignal boots the daemon, serves one client, then delivers
// SIGTERM and expects a clean drain with a checkpoint on disk.
func TestRunDrainOnSignal(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "streamd.ckpt")
	out := &syncBuffer{}
	sig := make(chan os.Signal, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0",
			"-shards", "2", "-cache", "64",
			"-checkpoint", ckpt,
		}, out, sig)
	}()
	addr := waitForAddr(t, out, "stochstreamd: listening on ")

	cl, err := client.Dial(client.Options{Addr: addr, Session: "cmdtest", Seed: 3})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if _, err := cl.Ingest([]wire.Step{{RKey: 1, SKey: 1}, {RKey: 2, SKey: 3}}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("client Close: %v", err)
	}

	sig <- syscall.SIGTERM
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d; output:\n%s", code, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("run did not exit after SIGTERM; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("output missing drain confirmation:\n%s", out.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Errorf("checkpoint not written: %v", err)
	}
}

// TestRunDefaultsToOneShard: without -shards the daemon runs one shard, and
// its /metrics says so.
func TestRunDefaultsToOneShard(t *testing.T) {
	out := &syncBuffer{}
	sig := make(chan os.Signal, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}, out, sig)
	}()
	defer func() {
		sig <- syscall.SIGTERM
		if code := <-done; code != 0 {
			t.Errorf("run exited %d; output:\n%s", code, out.String())
		}
	}()
	resp, err := http.Get("http://" + waitForAddr(t, out, "stochstreamd: http on ") + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "\nshardrt_shards 1\n") {
		t.Fatalf("/metrics does not report one shard:\n%s", body)
	}
}

func TestRunBadFlags(t *testing.T) {
	var out syncBuffer
	if code := run([]string{"-definitely-not-a-flag"}, &out, nil); code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
	}
}

func TestRunBadConfig(t *testing.T) {
	var out syncBuffer
	// Cache below the per-shard floor fails runtime validation.
	if code := run([]string{"-shards", "8", "-cache", "1"}, &out, nil); code != 1 {
		t.Fatalf("bad config exit = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "stochstreamd:") {
		t.Errorf("error not reported on stdout:\n%s", out.String())
	}
}
