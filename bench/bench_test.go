package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/campaign"
	"github.com/actfort/actfort/internal/obs"
	"github.com/actfort/actfort/internal/server"
)

func testCtx(seed int64) *runCtx {
	return &runCtx{ctx: context.Background(), workload: "test", seed: seed, tr: newTracer()}
}

// The replay must count exactly what the engine counts, for a single
// run and for a sweep (whose runs normalize their scenarios twice), and
// its spans must yield every replay metric.
func TestReplayMatchesEngine(t *testing.T) {
	rc := testCtx(3)
	pop, eng, err := buildEngine(rc, 0, 10_000, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	scs, err := builtins([]string{"baseline", "a53-mix", "budget-4of16"})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("RunScenario", func(t *testing.T) {
		var want []*campaign.Summary
		for _, sc := range scs {
			sum, err := eng.RunScenario(rc.ctx, sc)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, sum)
		}
		res := newResult("test", provenance{}, true)
		if err := replayCheck(rc, res, pop, eng, scs, want); err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted != len(scs) {
			t.Fatalf("replay cross-check: %d of %d failed: %v", res.Failed, res.Attempted, res.Failures)
		}
		for _, name := range []string{
			"population.shard_ns_per_sub", "population.leakrec_ns_per_rec", "socialdb.addall_ns_per_rec",
			"socialdb.lookup_ns", "socialdb.hit_ratio", "telecom.encode_ns_per_burst", "telecom.bursts",
			"sniffer.feed_self_ns_per_burst", "sniffer.decoded_ratio", "sniffer.crack_ns_per_crack",
			"sniffer.cracks", "sniffer.kc_reuse_ratio",
		} {
			if v := res.LayerMetrics[name]; !(v > 0) {
				t.Errorf("%s = %v, want > 0", name, v)
			}
		}
	})
	t.Run("RunSweep", func(t *testing.T) {
		sw, err := eng.RunSweep(rc.ctx, scs)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]*campaign.Summary, len(sw.Results))
		for i, r := range sw.Results {
			want[i] = r.Summary
		}
		runAs, err := campaign.NormalizeSweep(scs)
		if err != nil {
			t.Fatal(err)
		}
		res := newResult("test", provenance{}, true)
		if err := replayCheck(rc, res, pop, eng, runAs, want); err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("replay cross-check: %v", res.Failures)
		}
	})
}

// The query sequence is a pure function of the seed and holds the mix
// in exact proportion block by block.
func TestMixer(t *testing.T) {
	targets, err := mixedTargets()
	if err != nil {
		t.Fatal(err)
	}
	weights := []int{2, 2, 1}
	deal := func(seed int64) []int {
		m := newMixer(seed, targets)
		out := make([]int, 100)
		for i := range out {
			out[i] = m.next()
		}
		return out
	}
	a := deal(7)
	if b := deal(7); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different query sequences")
	}
	if c := deal(8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same query sequence")
	}
	for blk := 0; blk < len(a); blk += 5 {
		counts := make([]int, len(weights))
		for _, x := range a[blk : blk+5] {
			counts[x]++
		}
		if !reflect.DeepEqual(counts, weights) {
			t.Fatalf("block %d holds %v, want %v", blk/5, counts, weights)
		}
	}
}

// The comparator's three verdicts, and quartiles as Python computes
// them.
func TestVerdicts(t *testing.T) {
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	lat := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	tput := metricDef{Name: "victims_per_s", Better: "higher", Bound: 0.05}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"within bound", lat, steady, scale(steady, 1.03), verdictOK},
		{"faster", lat, steady, scale(steady, 0.7), verdictOK},
		{"slower", lat, steady, scale(steady, 1.2), verdictRegressed},
		{"throughput drop", tput, steady, scale(steady, 0.9), verdictRegressed},
		{"noisy, interleaved", lat, noisy, scale(noisy, 1.15), verdictUnresolved},
		{"noisy, every run worse", lat, noisy, scale(noisy, 2), verdictRegressed},
	} {
		if got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// Digests ignore the clock and nothing else.
func TestDigestStripsWallClock(t *testing.T) {
	a := &campaign.Summary{Scenario: "baseline", Subscribers: 10, Duration: time.Second,
		PhaseTimings: []campaign.PhaseTiming{{Phase: "feed", Count: 1, Total: time.Millisecond}}}
	b := *a
	b.Duration, b.VictimsPerSec, b.PhaseTimings = 2*time.Second, 5, nil
	c := *a
	c.Subscribers = 11
	da, _ := digestOf(a)
	db, _ := digestOf(&b)
	dc, _ := digestOf(&c)
	if da != db || da == dc {
		t.Fatalf("digests: clock-only change equal=%v, count change equal=%v", da == db, da == dc)
	}
	sw := &campaign.SweepSummary{Subscribers: 10, RigsBuilt: 2, Duration: time.Second,
		Results: []campaign.ScenarioResult{{Summary: a, Duration: time.Second}}}
	sw2 := *sw
	sw2.RigsBuilt, sw2.Duration = 0, time.Minute
	sw2.Results = []campaign.ScenarioResult{{Summary: &b, Duration: time.Hour}}
	d1, _ := digestOf(sw)
	d2, _ := digestOf(&sw2)
	if d1 != d2 {
		t.Fatal("sweep digest depends on the clock or on rig reuse")
	}
}

// Two clients against an in-process server for half a second: every
// answer is 200 and digests equal to the in-process reference.
func TestServeClients(t *testing.T) {
	rc := testCtx(5)
	targets, err := mixedTargets()
	if err != nil {
		t.Fatal(err)
	}
	_, eng, _, err := reference(rc, targets)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Engine: eng, Registry: obs.NewRegistry(), MaxInFlight: 2})
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	samples := runClients(rc.ctx, ts.Client(), ts.URL, targets, newMixer(rc.seed, targets), serveClients, 500*time.Millisecond)
	res := newResult("test", provenance{}, false)
	r := evalQueries(rc, res, targets, samples)
	if res.Failed != 0 || r.ok < serveClients || r.ok != len(samples) {
		t.Fatalf("%d of %d queries failed: %v", res.Failed, len(samples), res.Failures)
	}
	for i, l := range r.latMs {
		if !(l > 0) {
			t.Errorf("query %d latency %v", i, l)
		}
	}
	if r.subs < int64(r.ok*serveSubscribers) || r.wall <= 0 {
		t.Errorf("%d answers covered %d subscribers in %v", r.ok, r.subs, r.wall)
	}
}

// BENCHMARK.json declares exactly what the program measures.
func TestBenchmarkJSON(t *testing.T) {
	var bf benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", bf.Command, bf.Paths)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: declared %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program:\n%+v\n%+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program:\n%+v\n%+v", bf.PerLayer, perLayer)
	}
}
