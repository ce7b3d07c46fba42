package httpd

import (
	"context"
	"io"
	"net/http"
	"testing"
	"time"
)

func TestStartServeShutdown(t *testing.T) {
	srv, err := Start("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok")
	}))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || string(body) != "ok" {
		t.Fatalf("GET body = %q, err %v, want ok", body, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The serve goroutine is joined: a second request must fail.
	if _, err := http.Get("http://" + srv.Addr() + "/"); err == nil {
		t.Fatal("GET after Shutdown succeeded, want connection error")
	}
}

func TestDefaultTimeouts(t *testing.T) {
	srv, err := Start("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() { _ = srv.Close() }()
	if got := srv.srv.ReadHeaderTimeout; got != DefaultReadHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want default %v", got, DefaultReadHeaderTimeout)
	}
	if got := srv.srv.IdleTimeout; got != DefaultIdleTimeout {
		t.Errorf("IdleTimeout = %v, want default %v", got, DefaultIdleTimeout)
	}
}

func TestCloseIsAbrupt(t *testing.T) {
	started := make(chan struct{})
	srv, err := Start("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-r.Context().Done()
	}))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	go func() {
		_, _ = http.Get("http://" + srv.Addr() + "/")
	}()
	<-started
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
