package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/campaign"
	"github.com/actfort/actfort/internal/obs"
	"github.com/actfort/actfort/internal/population"
	"github.com/actfort/actfort/internal/ratelimit"
	"github.com/actfort/actfort/internal/report"
)

// newEngine builds a resident engine over a fixed-seed population, the
// same Seed 7 the campaign package's own tests pin results against.
func newEngine(t *testing.T, size, shard int, mut func(*campaign.Config)) *campaign.Engine {
	t.Helper()
	pop, err := population.New(population.Config{Seed: 7, Size: size, ShardSize: shard})
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.Config{Population: pop, KeyBits: 10, Workers: 4}
	if mut != nil {
		mut(&cfg)
	}
	eng, err := campaign.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// startServer mounts s on a fresh mux inside an httptest listener.
func startServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	s.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// postErr sends body to path and returns status and response bytes —
// the goroutine-safe form the concurrency test uses (no t.Fatal off
// the test goroutine).
func postErr(ts *httptest.Server, path, body string) (int, []byte, error) {
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, fmt.Errorf("POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// post is postErr with failures fatal on the test goroutine.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	status, raw, err := postErr(ts, path, body)
	if err != nil {
		t.Fatal(err)
	}
	return status, raw
}

// zeroSummary zeroes the wall-clock Summary fields, mirroring the
// campaign package's zeroClock, so responses compare byte for byte.
func zeroSummary(sum *campaign.Summary) {
	sum.Duration = 0
	sum.VictimsPerSec = 0
	sum.ActiveDuration = 0
	sum.ResumeVictimsPerSec = 0
	sum.PhaseTimings = nil
}

// zeroSweep additionally strips per-scenario durations and the
// rig-build delta — the one sweep field that is legitimately
// nondeterministic when sweeps share a warm engine concurrently.
func zeroSweep(sw *campaign.SweepSummary) {
	sw.Duration = 0
	sw.RigsBuilt = 0
	for i := range sw.Results {
		sw.Results[i].Duration = 0
		if sw.Results[i].Summary != nil {
			zeroSummary(sw.Results[i].Summary)
		}
	}
}

// mustJSON renders v with the same encoder the server responds with.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := report.JSON(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServerEndToEndRace is the service-layer determinism pin: an
// in-process campaignd over a 10k-subscriber resident engine, hammered
// with mixed /v1/scenario and /v1/sweep queries from many goroutines
// (run under -race in CI), answers every request byte-identically to a
// direct Engine call — the HTTP layer adds concurrency, not results.
func TestServerEndToEndRace(t *testing.T) {
	eng := newEngine(t, 10000, 512, func(c *campaign.Config) { c.SweepParallel = 2 })
	scenario := campaign.Scenario{Name: "baseline"}
	fortified := campaign.Scenario{Name: "fortified", Policy: "fortify-all"}
	sweep := []campaign.Scenario{scenario, fortified}

	// Expected bytes from direct engine calls on the same resident
	// engine the server holds.
	wantScenario := make(map[string][]byte)
	for _, sc := range []campaign.Scenario{scenario, fortified} {
		sum, err := eng.RunScenario(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		zeroSummary(sum)
		wantScenario[sc.Name] = mustJSON(t, sum)
	}
	sw, err := eng.RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	zeroSweep(sw)
	wantSweep := mustJSON(t, sw)

	s := New(Config{Engine: eng, Registry: obs.NewRegistry()})
	ts := startServer(t, s)
	scenarioBody, _ := json.Marshal(scenario)
	fortifiedBody, _ := json.Marshal(fortified)
	sweepBody, _ := json.Marshal(sweep)

	const goroutines, iters = 8, 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 3 {
				case 0, 1:
					body, want := scenarioBody, wantScenario["baseline"]
					if (g+i)%3 == 1 {
						body, want = fortifiedBody, wantScenario["fortified"]
					}
					status, raw, err := postErr(ts, "/v1/scenario", string(body))
					if err != nil {
						errs <- err
						continue
					}
					if status != http.StatusOK {
						errs <- fmt.Errorf("scenario status %d: %s", status, raw)
						continue
					}
					var sum campaign.Summary
					if err := json.Unmarshal(raw, &sum); err != nil {
						errs <- fmt.Errorf("decode summary: %v", err)
						continue
					}
					zeroSummary(&sum)
					got, err := report.JSON(&sum)
					if err != nil {
						errs <- err
					} else if !bytes.Equal(got, want) {
						errs <- fmt.Errorf("goroutine %d iter %d: scenario response diverged from direct engine call", g, i)
					}
				case 2:
					status, raw, err := postErr(ts, "/v1/sweep", string(sweepBody))
					if err != nil {
						errs <- err
						continue
					}
					if status != http.StatusOK {
						errs <- fmt.Errorf("sweep status %d: %s", status, raw)
						continue
					}
					var got campaign.SweepSummary
					if err := json.Unmarshal(raw, &got); err != nil {
						errs <- fmt.Errorf("decode sweep: %v", err)
						continue
					}
					zeroSweep(&got)
					b, err := report.JSON(&got)
					if err != nil {
						errs <- err
					} else if !bytes.Equal(b, wantSweep) {
						errs <- fmt.Errorf("goroutine %d iter %d: sweep response diverged from direct engine call", g, i)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerRejectsMalformed pins the structured-400 surface: every
// way a request can be malformed — bad JSON, unknown fields, trailing
// garbage, out-of-range probabilities, empty or duplicate-name sweeps
// — is a 400 with a JSON error envelope, never an engine run.
func TestServerRejectsMalformed(t *testing.T) {
	eng := newEngine(t, 1024, 256, nil)
	s := New(Config{Engine: eng, Registry: obs.NewRegistry()})
	ts := startServer(t, s)

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"bad json", "/v1/scenario", `{"name":`, http.StatusBadRequest},
		{"unknown field", "/v1/scenario", `{"name":"x","coverage":0.5}`, http.StatusBadRequest},
		{"trailing garbage", "/v1/scenario", `{"name":"x"} extra`, http.StatusBadRequest},
		{"probability above one", "/v1/scenario", `{"name":"x","radio":{"reauthSkip":5}}`, http.StatusBadRequest},
		{"bad platform", "/v1/scenario", `{"name":"x","platform":"fax"}`, http.StatusBadRequest},
		{"empty sweep", "/v1/sweep", `[]`, http.StatusBadRequest},
		{"duplicate names", "/v1/sweep", `[{"name":"a"},{"name":"a"}]`, http.StatusBadRequest},
		{"sweep not array", "/v1/sweep", `{"name":"a"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := post(t, ts, tc.path, tc.body)
			if status != tc.want {
				t.Fatalf("status = %d, want %d (%s)", status, tc.want, raw)
			}
			var eb errorBody
			if err := json.Unmarshal(raw, &eb); err != nil || eb.Status != tc.want || eb.Error == "" {
				t.Fatalf("error envelope %q not structured", raw)
			}
		})
	}

	// Wrong method is a 405, not a decode error.
	resp, err := ts.Client().Get(ts.URL + "/v1/scenario")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/scenario = %d, want 405", resp.StatusCode)
	}
}

// TestServerLifecycle walks the readiness state machine: healthz is
// live from the first listen, readyz and the query endpoints refuse
// (503) until SetEngine delivers the warm engine, and StartDrain flips
// both back to refusing while healthz stays 200.
func TestServerLifecycle(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()}) // no engine yet
	ts := startServer(t, s)

	get := func(path string) int {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/v1/healthz"); got != http.StatusOK {
		t.Fatalf("healthz before engine = %d", got)
	}
	if got := get("/v1/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz before engine = %d, want 503", got)
	}
	if status, _ := post(t, ts, "/v1/scenario", `{"name":"x"}`); status != http.StatusServiceUnavailable {
		t.Fatalf("scenario before engine = %d, want 503", status)
	}

	s.SetEngine(newEngine(t, 1024, 256, nil))
	if got := get("/v1/readyz"); got != http.StatusOK {
		t.Fatalf("readyz after engine = %d", got)
	}
	if status, _ := post(t, ts, "/v1/scenario", `{"name":"x"}`); status != http.StatusOK {
		t.Fatalf("scenario after engine = %d", status)
	}

	s.StartDrain()
	if got := get("/v1/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz draining = %d, want 503", got)
	}
	if status, _ := post(t, ts, "/v1/scenario", `{"name":"x"}`); status != http.StatusServiceUnavailable {
		t.Fatalf("scenario draining = %d, want 503", status)
	}
	if got := get("/v1/healthz"); got != http.StatusOK {
		t.Fatalf("healthz draining = %d", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if !s.Drain(ctx) {
		t.Fatal("Drain did not complete with no requests in flight")
	}
}

// TestServerRateLimit pins 429 admission control: with a near-zero
// refill rate, exactly the burst is admitted and the rest are shed
// before any engine work, counted by campaignd_ratelimited_total.
func TestServerRateLimit(t *testing.T) {
	reg := obs.NewRegistry()
	eng := newEngine(t, 1024, 256, nil)
	s := New(Config{Engine: eng, Registry: reg, Limiter: ratelimit.New(1e-9, 2)})
	ts := startServer(t, s)

	codes := map[int]int{}
	for i := 0; i < 5; i++ {
		status, _ := post(t, ts, "/v1/scenario", `{"name":"x"}`)
		codes[status]++
	}
	if codes[http.StatusOK] != 2 || codes[http.StatusTooManyRequests] != 3 {
		t.Fatalf("codes = %v, want 2x200 + 3x429", codes)
	}
	if v, ok := reg.Value("campaignd_ratelimited_total"); !ok || v != 3 {
		t.Fatalf("campaignd_ratelimited_total = %v (ok=%v), want 3", v, ok)
	}
	if v, ok := reg.Value("campaignd_responses_total",
		obs.L("endpoint", "scenario"), obs.L("code", "429")); !ok || v != 3 {
		t.Fatalf("responses{scenario,429} = %v (ok=%v), want 3", v, ok)
	}
}

// TestServerRequestTimeout pins the 504 path: a request whose deadline
// expires mid-run cancels the run context and reports gateway timeout.
func TestServerRequestTimeout(t *testing.T) {
	eng := newEngine(t, 1024, 256, nil)
	s := New(Config{Engine: eng, Registry: obs.NewRegistry(), RequestTimeout: time.Nanosecond})
	ts := startServer(t, s)
	status, raw := post(t, ts, "/v1/scenario", `{"name":"x"}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, raw)
	}
}

// TestServerQueueFullAnswers503 pins the bounded in-flight semaphore:
// when every slot is taken and the deadline expires while queued, the
// request is shed 503 without touching the engine.
func TestServerQueueFullAnswers503(t *testing.T) {
	eng := newEngine(t, 1024, 256, nil)
	s := New(Config{Engine: eng, Registry: obs.NewRegistry(),
		MaxInFlight: 1, RequestTimeout: 500 * time.Millisecond})
	ts := startServer(t, s)
	s.sem <- struct{}{} // occupy the only slot
	status, _ := post(t, ts, "/v1/scenario", `{"name":"x"}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 queued-out", status)
	}
	<-s.sem
	if status, _ := post(t, ts, "/v1/scenario", `{"name":"x"}`); status != http.StatusOK {
		t.Fatalf("status after slot freed = %d, want 200", status)
	}
}

// TestServerClientCancelReleasesAndRecovers is the server-path
// extension of the campaign goroutine-leak regression: a client
// disconnecting mid-run cancels the run context, winds every engine
// goroutine down, releases the (only) in-flight slot and the engine
// then serves the same query byte-identically.
func TestServerClientCancelReleasesAndRecovers(t *testing.T) {
	// cancelCurrent is armed by the test with the in-flight request's
	// cancel func; the engine's progress callback fires it after the
	// first merged shard, mid-run by construction.
	var cancelCurrent atomic.Value // of context.CancelFunc
	eng := newEngine(t, 4096, 128, func(c *campaign.Config) {
		c.ScenarioProgress = func(_ string, done, total int) {
			if done > 0 {
				if cf, ok := cancelCurrent.Load().(context.CancelFunc); ok && cf != nil {
					cf()
				}
			}
		}
	})
	want, err := eng.RunScenario(context.Background(), campaign.Scenario{Name: "steady"})
	if err != nil {
		t.Fatal(err)
	}
	zeroSummary(want)
	wantBytes := mustJSON(t, want)

	s := New(Config{Engine: eng, Registry: obs.NewRegistry(), MaxInFlight: 1})
	ts := startServer(t, s)
	ts.Client().CloseIdleConnections()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancelCurrent.Store(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/scenario", strings.NewReader(`{"name":"steady"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := ts.Client().Do(req); err == nil {
		// The transport may deliver the 499 instead of erroring.
		resp.Body.Close()
	}
	cancelCurrent.Store(context.CancelFunc(nil))
	cancel()

	// Engine goroutines wind down asynchronously; poll like the
	// campaign-package regression does.
	ts.Client().CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancelled request",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The single in-flight slot must be free again and the engine
	// undamaged: the same query answers byte-identically.
	status, raw := post(t, ts, "/v1/scenario", `{"name":"steady"}`)
	if status != http.StatusOK {
		t.Fatalf("post-cancel status = %d (%s)", status, raw)
	}
	var sum campaign.Summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	zeroSummary(&sum)
	if got := mustJSON(t, &sum); !bytes.Equal(got, wantBytes) {
		t.Fatal("post-cancel response diverged from pre-cancel direct run")
	}
}

// TestServerTraceAndMetrics pins request-scoped observability: the
// request ID names anonymous scenarios (so the engine's run_start
// trace row is attributable to its query), request_start/request_done
// bracket the run in the shard-lifecycle trace, and the per-endpoint
// counters and latency histogram record the request.
func TestServerTraceAndMetrics(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	tw, err := obs.OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng := newEngine(t, 1024, 256, func(c *campaign.Config) { c.Trace = tw })
	s := New(Config{Engine: eng, Registry: reg, Trace: tw})
	ts := startServer(t, s)

	status, raw := post(t, ts, "/v1/scenario", `{}`) // anonymous scenario
	if status != http.StatusOK {
		t.Fatalf("status = %d (%s)", status, raw)
	}
	var sum campaign.Summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Scenario != "req-1" {
		t.Fatalf("anonymous scenario named %q, want request ID req-1", sum.Scenario)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"event":"request_start","shard":-1,"detail":"req-1 /v1/scenario req-1"`,
		`"event":"request_done","shard":-1,"detail":"req-1 /v1/scenario scenario=req-1 status=200"`,
		`"event":"run_start","shard":-1,"detail":"req-1"`,
	} {
		if !strings.Contains(string(trace), want) {
			t.Errorf("trace missing %s\ntrace:\n%s", want, trace)
		}
	}

	if v, ok := reg.Value("campaignd_requests_total", obs.L("endpoint", "scenario")); !ok || v != 1 {
		t.Fatalf("requests_total{scenario} = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := reg.Value("campaignd_responses_total",
		obs.L("endpoint", "scenario"), obs.L("code", "200")); !ok || v != 1 {
		t.Fatalf("responses{scenario,200} = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := reg.Value("campaignd_inflight_requests"); !ok || v != 0 {
		t.Fatalf("inflight after completion = %v (ok=%v), want 0", v, ok)
	}
}
