package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/faultinject"
	"github.com/actfort/actfort/internal/obs"
)

// TestCampaignSummaryUnchangedByInstrumentation pins the tentpole
// contract of the telemetry layer: tracing and live metrics must never
// change results. A fixed-seed run with a trace file and a progress
// callback wired in renders byte-identical (wall-clock fields zeroed)
// to a bare run.
func TestCampaignSummaryUnchangedByInstrumentation(t *testing.T) {
	pop := testPop(t, 2048, 256)
	base := Config{Population: pop, KeyBits: 10, Workers: 3}
	base.Cracker = sharedCracker(t, base)

	plain := render(t, runCampaign(t, base), pop.Services())

	traced := base
	tw, err := obs.OpenTraceFile(filepath.Join(t.TempDir(), "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	traced.Trace = tw
	traced.ScenarioProgress = func(string, int, int) {}
	got := render(t, runCampaign(t, traced), pop.Services())
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if got != plain {
		t.Errorf("instrumented summary diverged:\n--- instrumented ---\n%s\n--- plain ---\n%s", got, plain)
	}
}

// TestCampaignPhaseTimings checks the per-run phase breakdown: a batch
// run must time every stage, in presentation order, with coherent
// count/total/quantile values.
func TestCampaignPhaseTimings(t *testing.T) {
	pop := testPop(t, 2048, 256) // 8 shards
	sum := runCampaign(t, Config{Population: pop, KeyBits: 10, Workers: 2})
	want := []string{"synth", "encrypt", "feed", "crack", "closure", "aggregate"}
	var got []string
	for _, p := range sum.PhaseTimings {
		got = append(got, p.Phase)
		if p.Count <= 0 {
			t.Errorf("phase %s: count %d", p.Phase, p.Count)
		}
		if p.Total < 0 || p.P50 < 0 || p.P90 < 0 || p.P99 < 0 {
			t.Errorf("phase %s: negative timing %+v", p.Phase, p)
		}
		if p.P50 > p.P99 {
			t.Errorf("phase %s: p50 %v > p99 %v", p.Phase, p.P50, p.P99)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("phases = %v, want %v", got, want)
	}
	// Per-shard phases observe once per shard.
	for _, p := range sum.PhaseTimings {
		if p.Phase == "synth" && p.Count != 8 {
			t.Errorf("synth count = %d, want one per shard", p.Count)
		}
	}
}

// TestCampaignTraceReconstructsFailures replays the trace of a
// fault-injected run and reconstructs the full retry→quarantine
// history of every poisoned shard: each retry is followed by a
// next-attempt start, every shard terminates in exactly one done or
// quarantine, and the poisoned shards quarantine while the rest
// complete.
func TestCampaignTraceReconstructsFailures(t *testing.T) {
	pop := testPop(t, 2048, 128) // 16 shards
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tw, err := obs.OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	in, err := faultinject.New(faultinject.Config{
		Seed:          3,
		TransientRate: 0.4,
		Poisoned:      []int{3, 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Population: pop, KeyBits: 10, Workers: 2,
		Fault: in, Trace: tw, MaxShardAttempts: 3,
	}
	cfg.Cracker = sharedCracker(t, Config{Population: pop, KeyBits: 10})
	sum := runCampaign(t, cfg)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if sum.ShardsQuarantined != 2 {
		t.Fatalf("quarantined %d shards, want the 2 poisoned", sum.ShardsQuarantined)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type ev struct {
		TS      float64 `json:"ts_ms"`
		Event   string  `json:"event"`
		Shard   int     `json:"shard"`
		Attempt int     `json:"attempt"`
	}
	history := map[int][]ev{}
	lastTS := -1.0
	var runStart, runDone int
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var e ev
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if e.TS < lastTS {
			t.Fatalf("timestamps not monotonic at %q", line)
		}
		lastTS = e.TS
		switch e.Event {
		case "run_start":
			runStart++
		case "run_done":
			runDone++
		case "shard_start", "shard_retry", "shard_done", "shard_quarantine":
			history[e.Shard] = append(history[e.Shard], e)
		}
	}
	if runStart != 1 || runDone != 1 {
		t.Errorf("run_start=%d run_done=%d, want 1/1", runStart, runDone)
	}
	if len(history) != 16 {
		t.Fatalf("trace covers %d shards, want 16", len(history))
	}
	for shard, seq := range history {
		poisoned := shard == 3 || shard == 11
		for i, e := range seq {
			switch e.Event {
			case "shard_retry":
				if i+1 >= len(seq) || seq[i+1].Event != "shard_start" || seq[i+1].Attempt != e.Attempt+1 {
					t.Errorf("shard %d: retry at attempt %d not followed by next start: %+v", shard, e.Attempt, seq)
				}
			}
		}
		last := seq[len(seq)-1].Event
		if poisoned && last != "shard_quarantine" {
			t.Errorf("poisoned shard %d ended with %s: %+v", shard, last, seq)
		}
		if !poisoned && last != "shard_done" {
			t.Errorf("shard %d ended with %s: %+v", shard, last, seq)
		}
	}
}

// TestCampaignResumeThroughputAccounting pins the VictimsPerSec fix: a
// resumed run must report the cumulative rate (all subscribers over
// all active wall clock, carried through the snapshot) plus a separate
// post-resume rate, instead of dividing the full victim count by only
// the second process's clock.
func TestCampaignResumeThroughputAccounting(t *testing.T) {
	pop := testPop(t, 2048, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: 2}
	cfg.Cracker = sharedCracker(t, cfg)
	dir := t.TempDir()

	crashed := cfg
	crashed.Checkpoint = &Checkpoint{Dir: dir, SnapshotEvery: 4}
	in, err := faultinject.New(faultinject.Config{Crash: map[faultinject.Point]int{faultinject.PointJournalAppend: 10}})
	if err != nil {
		t.Fatal(err)
	}
	crashed.Fault = in
	eng, err := New(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunScenario(context.Background(), Scenario{}); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("crashed run error = %v, want ErrCrash", err)
	}

	resumed := cfg
	resumed.Checkpoint = &Checkpoint{Dir: dir, SnapshotEvery: 4}
	eng2, err := New(resumed)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := eng2.RunScenario(context.Background(), Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.ActiveDuration < sum.Duration {
		t.Errorf("ActiveDuration %v < Duration %v: prior process's clock lost", sum.ActiveDuration, sum.Duration)
	}
	if sum.ActiveDuration == sum.Duration {
		t.Errorf("ActiveDuration == Duration %v: snapshot carried no prior active time", sum.Duration)
	}
	if sum.ResumeVictimsPerSec <= 0 {
		t.Errorf("ResumeVictimsPerSec = %v on a resumed run", sum.ResumeVictimsPerSec)
	}
	wantRate := float64(sum.Subscribers) / sum.ActiveDuration.Seconds()
	if diff := sum.VictimsPerSec - wantRate; diff > 1 || diff < -1 {
		t.Errorf("VictimsPerSec = %v, want cumulative %v", sum.VictimsPerSec, wantRate)
	}

	// A fresh, uninterrupted run reports no resume rate and equal
	// durations.
	fresh := runCampaign(t, cfg)
	if fresh.ResumeVictimsPerSec != 0 {
		t.Errorf("fresh run ResumeVictimsPerSec = %v", fresh.ResumeVictimsPerSec)
	}
	if fresh.ActiveDuration != fresh.Duration {
		t.Errorf("fresh run ActiveDuration %v != Duration %v", fresh.ActiveDuration, fresh.Duration)
	}
}

// TestCampaignConcurrentScrape scrapes the process-wide registry in
// Prometheus text form while a live campaign hammers every instrument
// family — the race-detector proof that exposition never tears or
// locks against the hot path (`go test -race` runs this in CI).
func TestCampaignConcurrentScrape(t *testing.T) {
	pop := testPop(t, 2048, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: 2}
	cfg.Cracker = sharedCracker(t, cfg)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var b strings.Builder
				if err := obs.Default.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
				if !strings.Contains(b.String(), "campaign_shards_started_total") {
					t.Error("scrape missing campaign family")
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	sum, err := eng.RunScenario(context.Background(), Scenario{})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Subscribers != 2048 {
		t.Fatalf("Subscribers = %d", sum.Subscribers)
	}
	// The run gauges the -progress ticker reads must have landed on
	// their final values.
	if v, ok := obs.Default.Value("campaign_run_subscribers_done"); !ok || v != 2048 {
		t.Errorf("campaign_run_subscribers_done = %v, %v", v, ok)
	}
	if v, ok := obs.Default.Value("campaign_coverage_fraction"); !ok || v != 1 {
		t.Errorf("campaign_coverage_fraction = %v, %v", v, ok)
	}
}
