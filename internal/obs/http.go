package obs

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Handler returns the /metrics scrape handler for r.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// Scrape errors past the header are client disconnects; there is
		// nothing useful to do with them.
		_ = r.WritePrometheus(w)
	})
}

// NewMux builds the diagnostics mux: /metrics (Prometheus text),
// /debug/vars (expvar, including the registry bridge if published) and
// the full /debug/pprof tree. It is a plain ServeMux so callers can add
// their own routes before serving — cmd/campaignd multiplexes its /v1
// query API onto exactly this mux.
func (r *Registry) NewMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running HTTP server with an explicit shutdown handle:
// Close is idempotent and safe from any goroutine, so a test cleanup
// and a signal handler can both stop the listener.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}

	// ShutdownTimeout bounds the graceful drain Close performs before
	// abandoning in-flight requests (0 = 2s, the diagnostics default).
	// A query server draining long-running scenario requests raises it
	// before Close.
	ShutdownTimeout time.Duration

	closeOnce sync.Once
	closeErr  error
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close gracefully shuts the server down: it stops accepting
// connections, waits up to ShutdownTimeout for in-flight requests,
// then forces the rest closed, and blocks until the serve loop has
// exited. Close is idempotent — every call after the first returns the
// first call's error without re-running shutdown.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		d := s.ShutdownTimeout
		if d <= 0 {
			d = 2 * time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		err := s.srv.Shutdown(ctx)
		if err != nil {
			// Drain timeout: force-close whatever is still in flight so
			// the serve loop exits and the listener is really released.
			_ = s.srv.Close()
		}
		<-s.done
		s.closeErr = err
	})
	return s.closeErr
}

// Serve listens on addr and serves handler (nil = the registry's
// diagnostics mux) until Close is called or ctx is canceled. The
// listen itself is synchronous so a bad addr fails fast instead of
// surfacing mid-run; the returned Server exposes the bound address and
// the idempotent shutdown handle.
func (r *Registry) Serve(ctx context.Context, addr string, handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	if handler == nil {
		handler = r.NewMux()
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: handler},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		// ErrServerClosed is the normal shutdown path; a real serve error
		// has nowhere to go but the diagnostics endpoint dying, which the
		// run must survive.
		_ = s.srv.Serve(ln)
	}()
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				_ = s.Close()
			case <-s.done:
			}
		}()
	}
	return s, nil
}
