package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/checkpoint"
	"github.com/actfort/actfort/internal/faultinject"
	"github.com/actfort/actfort/internal/population"
)

// render canonicalizes a summary for equality checks: the wall-clock
// fields are zeroed, everything else must match byte for byte.
func render(t *testing.T, sum *Summary, services []string) string {
	t.Helper()
	zeroClock(sum)
	return sum.Render(services, 10)
}

// sharedCracker builds one table backend so the resume matrix doesn't
// pay a TMTO precomputation per engine.
func sharedCracker(t *testing.T, cfg Config) a51.Cracker {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng.Cracker()
}

// TestCampaignResumeEquivalence is the core recovery invariant: a run
// killed at every instrumented crash point and then resumed yields a
// Summary byte-identical to an uninterrupted run, with fresh cracks
// batched per shard trace and per session (scalarCracker).
func TestCampaignResumeEquivalence(t *testing.T) {
	pop := testPop(t, 2048, 128) // 16 shards
	base := Config{Population: pop, KeyBits: 10, Workers: 2}
	base.Cracker = sharedCracker(t, base)

	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"batch", func(*Config) {}},
		{"scalar-replay", func(c *Config) { c.Cracker = scalarCracker{c.Cracker} }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			v.mut(&cfg)
			want := render(t, runCampaign(t, cfg), pop.Services())

			for _, point := range faultinject.Points() {
				point := point
				t.Run(string(point), func(t *testing.T) {
					dir := t.TempDir()
					// Crash the first run mid-write, then resume over the
					// same directory without faults.
					crashed := cfg
					crashed.Checkpoint = &Checkpoint{Dir: dir, SnapshotEvery: 4}
					in, err := faultinject.New(faultinject.Config{Crash: map[faultinject.Point]int{point: 2}})
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
					sum, err := New(resumed)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sum.RunScenario(context.Background(), Scenario{})
					if err != nil {
						t.Fatal(err)
					}
					if g := render(t, got, pop.Services()); g != want {
						t.Errorf("resumed summary diverged from uninterrupted run:\n--- got ---\n%s\n--- want ---\n%s", g, want)
					}
				})
			}
		})
	}
}

// TestCampaignResumeSkipsDoneShards pins the other half of resume: the
// second process must not redo journaled work.
func TestCampaignResumeSkipsDoneShards(t *testing.T) {
	pop := testPop(t, 2048, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: 2}
	cfg.Cracker = sharedCracker(t, cfg)
	dir := t.TempDir()

	crashed := cfg
	crashed.Checkpoint = &Checkpoint{Dir: dir, SnapshotEvery: 100}
	in, err := faultinject.New(faultinject.Config{Crash: map[faultinject.Point]int{faultinject.PointJournalAppend: 9}})
	if err != nil {
		t.Fatal(err)
	}
	crashed.Fault = in
	eng, err := New(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunScenario(context.Background(), Scenario{}); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("err = %v", err)
	}

	resumed := cfg
	resumed.Checkpoint = &Checkpoint{Dir: dir}
	var maxDone atomic.Int64
	resumed.ScenarioProgress = func(_ string, done, total int) {
		if int64(done) > maxDone.Load() {
			maxDone.Store(int64(done))
		}
	}
	eng2, err := New(resumed)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := eng2.RunScenario(context.Background(), Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Subscribers != 2048 {
		t.Fatalf("resumed total subscribers = %d", sum.Subscribers)
	}
	// 8 shards were journaled before the crash on the 9th append; the
	// resumed engine's first progress report must already include them.
	if maxDone.Load() != 2048 {
		t.Fatalf("progress peaked at %d", maxDone.Load())
	}
}

// TestCampaignManifestRefusal pins the loud-refusal contract at the
// engine level: resuming a journal against any changed input fails
// with ErrManifestMismatch instead of blending two runs.
func TestCampaignManifestRefusal(t *testing.T) {
	pop := testPop(t, 1024, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: 2, Checkpoint: &Checkpoint{}}
	cfg.Cracker = sharedCracker(t, Config{Population: pop, KeyBits: 10})
	dir := t.TempDir()
	cfg.Checkpoint.Dir = dir
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunScenario(context.Background(), Scenario{}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mut  func(*Config) error
		sc   Scenario
	}{
		{"population seed", func(c *Config) error {
			p2, err := population.New(population.Config{Seed: 9, Size: 1024, ShardSize: 128})
			c.Population = p2
			return err
		}, Scenario{}},
		{"scenario", func(*Config) error { return nil }, Scenario{Name: "cli", Policy: "fortify-all"}},
		{"shard range", func(c *Config) error {
			c.ShardLo, c.ShardHi = 0, 4
			return nil
		}, Scenario{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c2 := cfg
			if err := tc.mut(&c2); err != nil {
				t.Fatal(err)
			}
			eng2, err := New(c2)
			if err != nil {
				t.Fatal(err)
			}
			_, err = eng2.RunScenario(context.Background(), tc.sc)
			if !errors.Is(err, checkpoint.ErrManifestMismatch) {
				t.Fatalf("err = %v, want ErrManifestMismatch", err)
			}
		})
	}
}

// TestCampaignTwoRangeMergeEqualsSingle runs the population as two
// in-process "processes" owning disjoint shard ranges and checks the
// merged partials reproduce the single-process Summary exactly.
func TestCampaignTwoRangeMergeEqualsSingle(t *testing.T) {
	pop := testPop(t, 2048, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: 2}
	cfg.Cracker = sharedCracker(t, cfg)
	single := runCampaign(t, cfg)

	root := t.TempDir()
	parts := make([]*Partial, 0, 2)
	for k := 0; k < 2; k++ {
		rc := cfg
		rc.ShardLo, rc.ShardHi = k*8, (k+1)*8
		rc.Checkpoint = &Checkpoint{Dir: fmt.Sprintf("%s/range-%d-of-2", root, k)}
		eng, err := New(rc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunScenario(context.Background(), Scenario{}); err != nil {
			t.Fatal(err)
		}
		p, err := LoadPartial(rc.Checkpoint.Dir)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	merged, err := MergePartials(parts)
	if err != nil {
		t.Fatal(err)
	}
	merged.Workers = single.Workers // 2 processes × 2 workers vs 2
	if g, w := render(t, merged, pop.Services()), render(t, single, pop.Services()); g != w {
		t.Errorf("merged summary diverged:\n--- merged ---\n%s\n--- single ---\n%s", g, w)
	}

	// Tiling violations refuse loudly.
	if _, err := MergePartials(parts[:1]); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("gap accepted: %v", err)
	}
	if _, err := MergePartials([]*Partial{parts[0], parts[0]}); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlap accepted: %v", err)
	}
}

// TestCampaignQuarantineCoverage pins the degraded-report contract: a
// poisoned shard is quarantined after its attempt budget and the run
// completes with an explicit coverage fraction instead of aborting.
func TestCampaignQuarantineCoverage(t *testing.T) {
	pop := testPop(t, 2048, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: 2, MaxShardAttempts: 2}
	cfg.Cracker = sharedCracker(t, cfg)
	in, err := faultinject.New(faultinject.Config{Poisoned: []int{3, 11}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = in
	sum := runCampaign(t, cfg)
	if sum.ShardsQuarantined != 2 {
		t.Fatalf("ShardsQuarantined = %d", sum.ShardsQuarantined)
	}
	if sum.SubscribersSkipped != 256 {
		t.Fatalf("SubscribersSkipped = %d", sum.SubscribersSkipped)
	}
	if sum.Subscribers != 2048-256 {
		t.Fatalf("Subscribers = %d", sum.Subscribers)
	}
	want := float64(2048-256) / 2048
	if sum.CoverageFraction != want {
		t.Fatalf("CoverageFraction = %g, want %g", sum.CoverageFraction, want)
	}
	if !strings.Contains(sum.Render(pop.Services(), 5), "shards quarantined") {
		t.Error("render omits the quarantine rows")
	}
}

// TestCampaignTransientRetrySucceeds pins bounded retry: transient
// failures that clear within the attempt budget leave the Summary
// identical to a fault-free run.
func TestCampaignTransientRetrySucceeds(t *testing.T) {
	pop := testPop(t, 1024, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: 2}
	cfg.Cracker = sharedCracker(t, cfg)
	want := render(t, runCampaign(t, cfg), pop.Services())

	faulty := cfg
	// transientFailures is geometric with k < 32 possible, so give the
	// retry budget enough headroom that every shard clears.
	faulty.MaxShardAttempts = 40
	faulty.RetryBackoff = time.Microsecond
	faulty.RetryBackoffMax = 10 * time.Microsecond
	in, err := faultinject.New(faultinject.Config{Seed: 3, TransientRate: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	faulty.Fault = in
	sum := runCampaign(t, faulty)
	if sum.ShardsQuarantined != 0 {
		t.Fatalf("quarantined %d shards despite retry budget", sum.ShardsQuarantined)
	}
	if g := render(t, sum, pop.Services()); g != want {
		t.Error("retried run diverged from fault-free run")
	}
}

// TestCampaignCancelNoGoroutineLeak is the cancellation-audit
// regression test: cancelling mid-run must return promptly with no
// worker, feeder or aggregator goroutine left behind.
func TestCampaignCancelNoGoroutineLeak(t *testing.T) {
	pop := testPop(t, 4096, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: 4}
	cfg.Cracker = sharedCracker(t, cfg)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cfg.ScenarioProgress = func(_ string, done, total int) {
		if done > 0 {
			cancel() // cancel mid-run, after at least one shard merged
		}
	}
	// Backoff retries must also honor cancellation.
	cfg.RetryBackoff = 50 * time.Millisecond
	cfg.RetryBackoffMax = time.Second
	cfg.MaxShardAttempts = 100
	in, err := faultinject.New(faultinject.Config{Seed: 5, TransientRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = in
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunScenario(ctx, Scenario{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Goroutines wind down asynchronously after Run returns; poll
	// briefly rather than flake.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before run, %d after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSweepRecordsScenarioError pins satellite behavior: a scenario
// failing at runtime becomes an errored row, not a dead sweep.
func TestSweepRecordsScenarioError(t *testing.T) {
	pop := testPop(t, 1024, 256)
	eng, err := New(Config{Population: pop, KeyBits: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := eng.RunSweep(context.Background(), []Scenario{
		{Name: "good"},
		{Name: "bad", Policy: "no-such-policy"},
		{Name: "also-good", Policy: "fortify-all"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Results) != 3 {
		t.Fatalf("results = %d", len(sw.Results))
	}
	if sw.Results[0].Error != "" || sw.Results[0].Summary == nil {
		t.Fatalf("good scenario: %+v", sw.Results[0])
	}
	bad := sw.Results[1]
	if bad.Summary != nil || bad.Error == "" || !strings.Contains(bad.Error, "no-such-policy") {
		t.Fatalf("bad scenario: %+v", bad)
	}
	if sw.Results[2].Summary == nil {
		t.Fatal("sweep stopped at the failing scenario")
	}
	if sw.Baseline() != sw.Results[0].Summary {
		t.Fatal("baseline should be the first completed scenario")
	}
	text := sw.Render(pop.Services(), 5)
	if !strings.Contains(text, "ERROR: ") || !strings.Contains(text, "no-such-policy") {
		t.Errorf("render omits the errored row:\n%s", text)
	}
}
