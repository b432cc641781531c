package main

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/telemetry"
)

// server is one rank's telemetry endpoint: an HTTP listener serving the
// registry cluster.Run fills at /metrics and the Go profiling handlers
// under /debug/pprof/. It lives here, not beside the registry, because
// uts-dist is the one binary that serves: net/http, crypto/tls and pprof
// cost every other binary that links the transport 2.8–3.6 MiB of peak
// resident memory (DESIGN.md §13). It binds eagerly, so a port-0 caller
// can print the assigned address before the run starts, and serves on its
// own mux — nothing is registered on http.DefaultServeMux.
type server struct {
	ln  net.Listener
	srv *http.Server
}

// newServer binds addr (host:port; port 0 picks a free port) and starts
// serving reg plus the pprof handlers in a background goroutine. Close
// shuts it down.
func newServer(addr string, reg *telemetry.Registry) (*server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteText(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound listen address — what the rank prints, and what
// tests dial after binding port 0.
func (s *server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers. Nil-safe: a rank
// without -metrics-addr has no server.
func (s *server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
