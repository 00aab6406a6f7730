// Package server is the campaign query service's HTTP layer: it puts
// the resident campaign.Engine (one population, one TMTO table, one
// rig pool — built once, amortized forever) behind a small JSON API so
// the paper's fortification question — "what does takeover mass look
// like under policy X for segment Y" — becomes an online query instead
// of a batch job.
//
// Endpoints (all registered by Register, usually onto the obs
// diagnostics mux so /metrics and /debug/pprof ride the same
// listener):
//
//	POST /v1/scenario  one campaign.Scenario in, its Summary out
//	POST /v1/sweep     a scenario list in (the scenario-file format),
//	                   the comparative SweepSummary out
//	GET  /v1/healthz   process liveness (200 as soon as we listen)
//	GET  /v1/readyz    readiness: 200 only once the engine — the
//	                   population and cracker-table warm-up — is
//	                   resident and the server is not draining
//
// The service layer adds zero nondeterminism: a query's response body
// is byte-identical (modulo wall-clock fields) to a direct
// Engine.RunScenario/RunSweep call, which the race-focused end-to-end
// test pins. What it does add is the production skin: structured 400s
// from the campaign normalization rules, token-bucket admission (429),
// a bounded in-flight query semaphore sized off the engine's worker
// budget, per-request timeouts and client-disconnect cancellation
// threaded into the run, graceful drain, per-endpoint latency
// histograms and request IDs in the shard-lifecycle trace.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/actfort/actfort/internal/campaign"
	"github.com/actfort/actfort/internal/obs"
	"github.com/actfort/actfort/internal/ratelimit"
)

// MaxRequestBytes bounds a request body: scenario definitions are a
// few hundred bytes, so anything near the cap is garbage, not a query.
const MaxRequestBytes = 1 << 20

// StatusClientClosedRequest is the nginx-convention status recorded
// when the client disconnected before its run finished. Nothing reads
// the response, but the metric and trace rows need an honest code that
// is neither the server's fault (5xx) nor a success.
const StatusClientClosedRequest = 499

// RequestLatencyBuckets is the per-endpoint latency ladder: 100µs
// doubling to ~13s, wide enough that a population-scale sweep query
// still lands in a finite bucket.
var RequestLatencyBuckets = obs.ExpBuckets(100e-6, 2, 18)

// Config parameterizes a Server.
type Config struct {
	// Engine is the resident campaign engine. It may be nil at New —
	// the server answers healthz immediately and readyz 503 until
	// SetEngine delivers the warmed engine, so a listener can accept
	// probes while the population and TMTO table build.
	Engine *campaign.Engine
	// Registry receives the per-endpoint metrics (nil = obs.Default).
	Registry *obs.Registry
	// Limiter is the token-bucket admission gate for query endpoints;
	// a rejected request is answered 429 before any engine work. Nil =
	// unlimited.
	Limiter *ratelimit.Limiter
	// MaxInFlight bounds concurrently running queries; requests beyond
	// it queue until a slot frees or their context dies. Size it off
	// the engine's Workers budget — more in-flight runs than shard
	// workers only adds memory, not throughput (0 = GOMAXPROCS).
	MaxInFlight int
	// RequestTimeout bounds each query end to end — queue wait plus
	// run. Expiry cancels the run's context and answers 504 (0 = no
	// timeout).
	RequestTimeout time.Duration
	// Trace, when non-nil, receives request_start/request_done events
	// carrying the request ID alongside the engine's shard-lifecycle
	// stream, so a run in the trace is attributable to the query that
	// asked for it.
	Trace *obs.TraceWriter
}

// Server is the HTTP service over one resident engine. Build with New,
// mount with Register, flip readiness with SetEngine, shed new work
// with StartDrain. All methods are safe for concurrent use.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	engine atomic.Pointer[campaign.Engine]

	sem      chan struct{}
	draining atomic.Bool
	reqID    atomic.Uint64
	inflight sync.WaitGroup

	metInflight    *obs.Gauge
	metRatelimited *obs.Counter
	endpoints      map[string]*endpointMetrics
}

// New builds the server (without listening — the caller owns the mux
// and listener so /v1 can share the obs diagnostics mux).
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	s := &Server{
		cfg: cfg,
		reg: reg,
		sem: make(chan struct{}, cfg.MaxInFlight),
		metInflight: reg.NewGauge("campaignd_inflight_requests",
			"Requests currently inside a handler, including queries queued for an in-flight slot."),
		metRatelimited: reg.NewCounter("campaignd_ratelimited_total",
			"Query requests rejected 429 by the token-bucket admission gate."),
		endpoints: make(map[string]*endpointMetrics),
	}
	for _, ep := range []string{"scenario", "sweep", "healthz", "readyz"} {
		s.endpoints[ep] = newEndpointMetrics(reg, ep)
	}
	if cfg.Engine != nil {
		s.engine.Store(cfg.Engine)
	}
	return s
}

// SetEngine installs the resident engine and flips readiness. Called
// once startup warm-up (population + cracker table construction)
// completes; queries arriving earlier are answered 503.
func (s *Server) SetEngine(e *campaign.Engine) { s.engine.Store(e) }

// StartDrain marks the server draining: readyz answers 503 so load
// balancers stop routing here, and new query requests are refused,
// while queries already admitted run to completion. The caller then
// shuts the HTTP server down gracefully (which waits for those
// in-flight handlers) — the SIGTERM sequence cmd/campaignd follows.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Drain blocks until every in-flight handler has returned or ctx
// expires, reporting whether the drain completed.
func (s *Server) Drain(ctx context.Context) bool {
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-ctx.Done():
		return false
	}
}

// Register mounts the /v1 endpoints on mux — typically the obs
// diagnostics mux, so queries, /metrics and /debug/pprof share one
// listener.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/scenario", s.instrument("scenario", s.handleScenario))
	mux.HandleFunc("/v1/sweep", s.instrument("sweep", s.handleSweep))
	mux.HandleFunc("/v1/healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/v1/readyz", s.instrument("readyz", s.handleReadyz))
}

// handleHealthz is process liveness: 200 as long as we can serve at
// all, draining or not.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is load-balancer readiness: 200 only with a resident
// engine and no drain in progress.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeError(w, http.StatusServiceUnavailable, "draining")
	case s.engine.Load() == nil:
		writeError(w, http.StatusServiceUnavailable, "engine warming up (population/table build in progress)")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ready")
	}
}

// handleScenario runs one scenario: decode → validate (400) → admit
// (429/503) → run under the request context → Summary JSON.
func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a campaign.Scenario JSON object")
		return
	}
	sc, err := DecodeScenario(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	id := s.nextID()
	if sc.Name == "" {
		// The request ID becomes the scenario name, so the engine's
		// run_start trace event — and the response — identify the query.
		sc.Name = id
	}
	if _, err := sc.Normalized(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	eng, status, msg := s.admit(w, id, "/v1/scenario", sc.Name)
	if eng == nil {
		writeError(w, status, msg)
		return
	}
	ctx, cancel, release := s.begin(r)
	defer cancel()
	if !s.acquire(ctx, w, id, "/v1/scenario") {
		return
	}
	defer release()
	sum, err := eng.RunScenario(ctx, sc)
	if err != nil {
		s.runError(w, r, id, "/v1/scenario", err)
		return
	}
	s.trace("request_done", id, fmt.Sprintf("/v1/scenario scenario=%s status=200", sc.Name))
	writeJSON(w, sum)
}

// handleSweep runs a comparative scenario list (the scenario-file wire
// format) and returns the SweepSummary. The engine's configured
// SweepParallel governs how many of the list overlap.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a JSON array of campaign.Scenario objects")
		return
	}
	list, err := DecodeSweep(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	id := s.nextID()
	for i := range list {
		if list[i].Name == "" {
			list[i].Name = fmt.Sprintf("%s-%d", id, i)
		}
	}
	if _, err := campaign.NormalizeSweep(list); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	eng, status, msg := s.admit(w, id, "/v1/sweep", fmt.Sprintf("%d scenarios", len(list)))
	if eng == nil {
		writeError(w, status, msg)
		return
	}
	ctx, cancel, release := s.begin(r)
	defer cancel()
	if !s.acquire(ctx, w, id, "/v1/sweep") {
		return
	}
	defer release()
	sw, err := eng.RunSweep(ctx, list)
	if err != nil {
		s.runError(w, r, id, "/v1/sweep", err)
		return
	}
	s.trace("request_done", id, fmt.Sprintf("/v1/sweep scenarios=%d status=200", len(list)))
	writeJSON(w, sw)
}

// admit runs the pre-run gates shared by both query endpoints:
// draining and engine residency (503), then the token bucket (429).
// A nil engine return means the request was refused with (status,
// msg). Admission emits the request_start trace event so refused
// requests never reach the trace as phantom runs.
func (s *Server) admit(w http.ResponseWriter, id, endpoint, detail string) (*campaign.Engine, int, string) {
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable, "draining"
	}
	eng := s.engine.Load()
	if eng == nil {
		return nil, http.StatusServiceUnavailable, "engine warming up"
	}
	if !s.cfg.Limiter.Allow() {
		s.metRatelimited.Inc()
		return nil, http.StatusTooManyRequests, "rate limit exceeded"
	}
	s.trace("request_start", id, fmt.Sprintf("%s %s", endpoint, detail))
	return eng, 0, ""
}

// begin derives the run context (request context plus the configured
// timeout) and returns the semaphore release func acquire pairs with.
func (s *Server) begin(r *http.Request) (context.Context, context.CancelFunc, func()) {
	ctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	return ctx, cancel, func() { <-s.sem }
}

// acquire takes one in-flight slot, queueing until the request context
// dies — in which case the request is answered 503 (queued out) or 499
// (client gone) and acquire reports false with nothing to release. A
// free slot is taken even when the context is already dead: the run
// context decides that race downstream (→ 504/499), not the queue.
func (s *Server) acquire(ctx context.Context, w http.ResponseWriter, id, endpoint string) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		status := http.StatusServiceUnavailable
		if errors.Is(ctx.Err(), context.Canceled) {
			status = StatusClientClosedRequest
		}
		s.trace("request_done", id, fmt.Sprintf("%s status=%d queued-out", endpoint, status))
		writeError(w, status, "server at capacity: queued past the request deadline")
		return false
	}
}

// runError maps a RunScenario/RunSweep failure to a status. Validation
// ran before admission, so an error here is either the context dying —
// the client's disconnect (499) or the server's deadline (504) — or a
// genuine engine failure (500).
func (s *Server) runError(w http.ResponseWriter, r *http.Request, id, endpoint string, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The run's context only cancels when the request context does;
		// distinguish "client went away" from anything else.
		status = StatusClientClosedRequest
		if r.Context().Err() == nil {
			status = http.StatusInternalServerError
		}
	}
	s.trace("request_done", id, fmt.Sprintf("%s status=%d err=%s", endpoint, status, err))
	writeError(w, status, err.Error())
}

// nextID mints the per-process request ID carried by trace events and
// anonymous scenario names.
func (s *Server) nextID() string {
	return fmt.Sprintf("req-%d", s.reqID.Add(1))
}

// trace emits one request-lifecycle event next to the engine's shard
// events (nil-safe like every TraceWriter call).
func (s *Server) trace(event, id, detail string) {
	s.cfg.Trace.Emit(obs.TraceEvent{Event: event, Shard: -1, Detail: id + " " + detail})
}

// endpointMetrics is one endpoint's observability handles, resolved at
// New so the request path never does registry lookups for the common
// response codes.
type endpointMetrics struct {
	name     string
	reg      *obs.Registry
	requests *obs.Counter
	latency  *obs.Histogram
	codes    map[int]*obs.Counter
}

// newEndpointMetrics resolves the endpoint's series, pre-building the
// counters for every status the handlers emit.
func newEndpointMetrics(reg *obs.Registry, name string) *endpointMetrics {
	m := &endpointMetrics{
		name: name,
		reg:  reg,
		requests: reg.NewCounter("campaignd_requests_total",
			"Requests received per endpoint, before any gate.", obs.L("endpoint", name)),
		latency: reg.NewHistogram("campaignd_request_seconds",
			"End-to-end request latency per endpoint, including queue wait and the scenario run.",
			RequestLatencyBuckets, obs.L("endpoint", name)),
		codes: make(map[int]*obs.Counter),
	}
	for _, c := range []int{200, 400, 404, 405, 408, 413, 429,
		StatusClientClosedRequest, 500, 503, 504} {
		m.codes[c] = m.codeCounter(c)
	}
	return m
}

// codeCounter resolves the responses counter for one status code.
func (m *endpointMetrics) codeCounter(c int) *obs.Counter {
	return m.reg.NewCounter("campaignd_responses_total",
		"Responses per endpoint and status code.",
		obs.L("endpoint", m.name), obs.L("code", strconv.Itoa(c)))
}

// code returns the counter for c, falling back to a registry lookup
// for codes outside the pre-resolved set (rare — net/http internals).
func (m *endpointMetrics) code(c int) *obs.Counter {
	if ctr, ok := m.codes[c]; ok {
		return ctr
	}
	return m.codeCounter(c)
}

// statusWriter captures the response status for metrics and traces.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status before delegating.
func (sw *statusWriter) WriteHeader(status int) {
	sw.status = status
	sw.ResponseWriter.WriteHeader(status)
}

// instrument wraps a handler with the per-endpoint request counter,
// in-flight gauge, drain accounting, latency histogram and response
// code counter.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	m := s.endpoints[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.requests.Inc()
		s.metInflight.Add(1)
		s.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.inflight.Done()
		s.metInflight.Add(-1)
		m.latency.ObserveSince(start)
		m.code(sw.status).Inc()
	}
}
