package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "jobs", L("kind", "a"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels must return the same series.
	if c2 := r.NewCounter("jobs_total", "jobs", L("kind", "a")); c2 != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Different labels are a different series.
	if c3 := r.NewCounter("jobs_total", "jobs", L("kind", "b")); c3 == c {
		t.Fatal("distinct labels returned the same counter")
	}

	g := r.NewGauge("depth", "queue depth")
	g.Set(3.5)
	g.Add(-1.25)
	if got := g.Value(); got != 2.25 {
		t.Fatalf("gauge = %v, want 2.25", got)
	}

	if v, ok := r.Value("jobs_total", L("kind", "a")); !ok || v != 5 {
		t.Fatalf("Value(jobs_total{kind=a}) = %v, %v", v, ok)
	}
	if _, ok := r.Value("nope"); ok {
		t.Fatal("Value on unknown family reported ok")
	}
}

func TestLabelOrderInsensitive(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("x_total", "", L("a", "1"), L("b", "2"))
	b := r.NewCounter("x_total", "", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order changed series identity")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dual", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering dual as gauge did not panic")
		}
	}()
	r.NewGauge("dual", "")
}

// TestHistogramQuantileGolden pins the interpolation estimator against
// hand-computed values: 100 observations 1..100 into decade buckets.
func TestHistogramQuantileGolden(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", "", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if got := h.Sum(); got != 5050 {
		t.Fatalf("sum = %v, want 5050", got)
	}
	// Each bucket holds exactly 10 observations, so the interpolated
	// q-quantile is exactly 100q.
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 50}, {0.90, 90}, {0.99, 99}, {0.10, 10}, {1.0, 100},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", "", []float64{1, 2, 4})
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty histogram quantile = %v, want NaN", got)
	}
	// A value beyond every bound lands in +Inf and clamps to the top
	// finite bound.
	h.Observe(100)
	if got := h.Quantile(0.5); got != 4 {
		t.Fatalf("overflow quantile = %v, want 4 (top bound clamp)", got)
	}
	// Single in-range observation interpolates within its bucket.
	h2 := r.NewHistogram("lat2", "", []float64{1, 2, 4})
	h2.Observe(1.5)
	got := h2.Quantile(0.5)
	if got < 1 || got > 2 {
		t.Fatalf("quantile %v outside observation's bucket [1,2]", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	if n := len(LatencyBuckets); n != 12 {
		t.Fatalf("LatencyBuckets has %d bounds, want 12", n)
	}
}

// TestWritePrometheus checks the text exposition end to end: HELP/TYPE
// headers, label rendering, cumulative histogram buckets, and
// deterministic ordering.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("b_total", "b help", L("k", "v")).Add(7)
	r.NewGauge("a_gauge", "a help").Set(1.5)
	r.NewGaugeFunc("c_fn", "", func() float64 { return 9 })
	h := r.NewHistogram("d_hist", "d help", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP a_gauge a help
# TYPE a_gauge gauge
a_gauge 1.5
# HELP b_total b help
# TYPE b_total counter
b_total{k="v"} 7
# TYPE c_fn gauge
c_fn 9
# HELP d_hist d help
# TYPE d_hist histogram
d_hist_bucket{le="1"} 1
d_hist_bucket{le="10"} 2
d_hist_bucket{le="+Inf"} 3
d_hist_sum 55.5
d_hist_count 3
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("e_total", "", L("path", `a\b"c`+"\n")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `e_total{path="a\\b\"c\n"} 1`) {
		t.Errorf("label not escaped: %q", sb.String())
	}
}

// TestConcurrentScrape hammers the registry from writer goroutines
// while scraping in a loop — the package-level half of the race
// coverage (the campaign-level test drives a live engine).
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.NewCounter("w_total", "", L("w", fmt.Sprint(w)))
			h := r.NewHistogram("w_lat", "", LatencyBuckets, L("w", fmt.Sprint(w)))
			g := r.NewGauge("w_g", "", L("w", fmt.Sprint(w)))
			for i := 0; ctx.Err() == nil; i++ {
				c.Inc()
				h.Observe(float64(i%1000) * 1e-6)
				g.Set(float64(i))
			}
		}(w)
	}
	// Register new families concurrently with scrapes to exercise the
	// registry lock too, not just series atomics.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ctx.Err() == nil && i < 100; i++ {
			r.NewCounter(fmt.Sprintf("dyn_%d_total", i), "").Inc()
		}
	}()
	for i := 0; i < 50; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	wg.Wait()
}

func TestHTTPServer(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("hits_total", "").Add(3)
	srv, err := r.Serve(context.Background(), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "hits_total 3") {
		t.Errorf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("/debug/vars: code=%d body=%q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: code=%d", code)
	}
}

func TestRuntimePoller(t *testing.T) {
	r := NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.StartRuntimePoller(ctx, time.Hour) // rely on the synchronous first poll
	v, ok := r.Value("go_goroutines")
	if !ok || v < 1 {
		t.Fatalf("go_goroutines = %v, %v — want >= 1", v, ok)
	}
	if v, ok := r.Value("go_heap_objects_bytes"); !ok || v <= 0 {
		t.Fatalf("go_heap_objects_bytes = %v, %v", v, ok)
	}
}

func TestProfiler(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	p, err := StartProfiler(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile is non-trivial.
	x := 0.0
	for i := 0; i < 1e6; i++ {
		x += math.Sqrt(float64(i))
	}
	_ = x
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil { // idempotent
		t.Fatalf("second Stop: %v", err)
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", f, err)
		}
	}
	// Nil and empty profilers are no-ops.
	var nilP *Profiler
	if err := nilP.Stop(); err != nil {
		t.Fatal(err)
	}
	empty, err := StartProfiler("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tw, err := OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tw.Emit(TraceEvent{Event: "run_start", Shard: -1, Subscribers: 10000})
	tw.Emit(TraceEvent{Event: "shard_start", Shard: 0, Attempt: 1})
	tw.Emit(TraceEvent{Event: "shard_retry", Shard: 0, Attempt: 1, Detail: "transient"})
	tw.Emit(TraceEvent{Event: "shard_done", Shard: 0, Attempt: 2, Subscribers: 512})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var events []TraceEvent
	var lastTS float64 = -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if ev.TS < lastTS {
			t.Fatalf("timestamps not monotonic: %v after %v", ev.TS, lastTS)
		}
		lastTS = ev.TS
		events = append(events, ev)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	if events[0].Event != "run_start" || events[0].Shard != -1 {
		t.Errorf("first event = %+v", events[0])
	}
	if events[2].Detail != "transient" {
		t.Errorf("retry detail = %q", events[2].Detail)
	}

	// Nil writer: every method is a no-op.
	var nilTW *TraceWriter
	nilTW.Emit(TraceEvent{Event: "x"})
	nilTW.Flush()
	if err := nilTW.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("pe_total", "", L("k", "v")).Add(2)
	h := r.NewHistogram("pe_lat", "", []float64{1, 2})
	h.Observe(1.5)
	r.PublishExpvar("obs_test_registry")
	srv, err := r.Serve(context.Background(), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var all map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	var bridge map[string]any
	if err := json.Unmarshal(all["obs_test_registry"], &bridge); err != nil {
		t.Fatalf("bridge var: %v", err)
	}
	if v, ok := bridge["pe_total{k=v}"].(float64); !ok || v != 2 {
		t.Errorf("bridge counter = %v", bridge["pe_total{k=v}"])
	}
	hist, ok := bridge["pe_lat"].(map[string]any)
	if !ok || hist["count"].(float64) != 1 {
		t.Errorf("bridge histogram = %v", bridge["pe_lat"])
	}
}

// TestServerCloseReleasesListener is the lifecycle regression test:
// Close must be idempotent and must actually release the port.
func TestServerCloseReleasesListener(t *testing.T) {
	r := NewRegistry()
	srv, err := r.Serve(context.Background(), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if resp, err := http.Get("http://" + addr + "/metrics"); err != nil {
		t.Fatalf("GET before close: %v", err)
	} else {
		resp.Body.Close()
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The port must be free again: rebinding the exact address succeeds
	// only if the first listener is really gone.
	srv2, err := r.Serve(context.Background(), addr, nil)
	if err != nil {
		t.Fatalf("rebind %s after Close: %v", addr, err)
	}
	defer srv2.Close()
	// And a canceled context must shut the server down without any
	// explicit Close.
	ctx, cancel := context.WithCancel(context.Background())
	srv3, err := r.Serve(ctx, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get("http://" + srv3.Addr() + "/metrics"); err != nil {
			break // listener gone
		}
		if time.Now().After(deadline) {
			t.Fatal("server still serving after context cancellation")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
