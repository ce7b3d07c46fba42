// Package httpd is the repo's one managed http.Server lifecycle: the
// stochstreamd daemon's HTTP surface serves through it, so the server carries
// header/idle timeouts against slowloris-style clients and a context-driven
// Shutdown whose completion is observable — the serve goroutine signals a
// done channel, and Shutdown/Close do not return until that goroutine has
// exited.
//
// The done-channel handshake is also what TestNoGoroutineOutlivesStop (in
// internal/streamd) relies on: once Close or Shutdown returns, no goroutine
// runs the serve loop.
package httpd

import (
	"context"
	"net"
	"net/http"
	"time"
)

// Timeouts applied to every managed server. They bound how long a client may
// dawdle over request headers and how long an idle keep-alive connection is
// kept, not how long a handler may run — the pprof handlers on the daemon's
// surface stay usable.
const (
	// DefaultReadHeaderTimeout caps the time from connection accept to a
	// complete request header.
	DefaultReadHeaderTimeout = 10 * time.Second
	// DefaultIdleTimeout reaps keep-alive connections with no request in
	// flight.
	DefaultIdleTimeout = 2 * time.Minute
)

// Server is a managed net/http server: a listener, the serve goroutine, and
// the done channel that proves the goroutine exited.
type Server struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

// Start listens on addr (use ":0" or "127.0.0.1:0" for an ephemeral port)
// and serves handler on a managed goroutine. The returned server must be
// stopped with Shutdown (graceful) or Close (abrupt).
func Start(addr string, handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		srv: &http.Server{
			Handler:           handler,
			ReadHeaderTimeout: DefaultReadHeaderTimeout,
			IdleTimeout:       DefaultIdleTimeout,
		},
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go s.run(ln)
	return s, nil
}

// run is the managed serve goroutine: it blocks in Serve until Shutdown or
// Close stops the server, then signals done. Serve's error is discarded on
// purpose — after a shutdown it is always http.ErrServerClosed.
func (s *Server) run(ln net.Listener) {
	defer close(s.done)
	_ = s.srv.Serve(ln)
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.addr }

// Shutdown gracefully stops the server: no new connections, in-flight
// requests run to completion (bounded by ctx), and the serve goroutine is
// joined before returning.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// Close abruptly stops the server, dropping in-flight requests, and joins
// the serve goroutine.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}
