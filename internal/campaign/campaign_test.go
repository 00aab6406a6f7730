package campaign

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/population"
)

func testPop(t *testing.T, size, shard int) *population.Population {
	t.Helper()
	pop, err := population.New(population.Config{Seed: 7, Size: size, ShardSize: shard})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// zeroClock zeroes every wall-clock-dependent Summary field so fixed-
// seed runs compare byte for byte.
func zeroClock(sum *Summary) {
	sum.Duration = 0
	sum.VictimsPerSec = 0
	sum.ActiveDuration = 0
	sum.ResumeVictimsPerSec = 0
	sum.PhaseTimings = nil
}

func runCampaign(t *testing.T, cfg Config) *Summary {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestCampaignEndToEnd(t *testing.T) {
	pop := testPop(t, 2000, 512)
	sum := runCampaign(t, Config{Population: pop, KeyBits: 10, Workers: 4})

	if sum.Subscribers != 2000 {
		t.Fatalf("Subscribers = %d", sum.Subscribers)
	}
	if sum.Covered != 2000 || sum.Intercepted != 2000 {
		t.Fatalf("full-coverage run: covered %d intercepted %d", sum.Covered, sum.Intercepted)
	}
	if sum.VictimsCompromised == 0 || sum.AccountsCompromised == 0 {
		t.Fatalf("no compromises: %+v", sum)
	}
	if sum.AccountsByDepth[1] == 0 {
		t.Error("no depth-1 (SMS-alone) takeovers — the fringe should dominate")
	}
	if sum.AccountsByDepth[2] == 0 {
		t.Error("no depth-2 chains — harvested info should unlock middle layers")
	}
	// Accounts-by-depth must total the account count.
	var depthTotal int64
	for _, c := range sum.AccountsByDepth {
		depthTotal += c
	}
	if depthTotal != sum.AccountsCompromised {
		t.Errorf("depth histogram sums to %d, accounts = %d", depthTotal, sum.AccountsCompromised)
	}
	// Victim histograms partition the intercepted set.
	var victimTotal int64
	for _, c := range sum.VictimsByMaxDepth {
		victimTotal += c
	}
	if victimTotal != sum.VictimsCompromised {
		t.Errorf("victim depth histogram sums to %d, compromised = %d", victimTotal, sum.VictimsCompromised)
	}
	var svcTotal int64
	for _, c := range sum.ServiceTakeovers {
		svcTotal += c
	}
	if svcTotal != sum.AccountsCompromised {
		t.Errorf("service takeovers sum to %d, accounts = %d", svcTotal, sum.AccountsCompromised)
	}
	// The shared cracker must have recovered keys, and the Kc-reuse
	// cache must have fired (ReauthSkip defaults to 0.6).
	if sum.Sniffer.CracksSucceeded == 0 || sum.Sniffer.CracksSucceeded != sum.Sniffer.CracksAttempted {
		t.Errorf("crack stats: %+v", sum.Sniffer)
	}
	if sum.Sniffer.KcReuseHits == 0 {
		t.Errorf("Kc-reuse cache never hit: %+v", sum.Sniffer)
	}
	if sum.LeakRecords == 0 || sum.DossierHits == 0 {
		t.Errorf("leak DB unused: records %d hits %d", sum.LeakRecords, sum.DossierHits)
	}
}

// TestCampaignDeterministic pins the campaign half of the determinism
// property: the same seed must reproduce the identical summary (all
// counters; only wall-clock fields are excluded).
func TestCampaignDeterministic(t *testing.T) {
	var services []string
	summaries := make([]*Summary, 2)
	for i := range summaries {
		pop := testPop(t, 1500, 256)
		services = pop.Services()
		sum := runCampaign(t, Config{Population: pop, KeyBits: 10, Workers: 3})
		zeroClock(sum)
		summaries[i] = sum
	}
	a, b := summaries[0], summaries[1]
	if a.Sniffer != b.Sniffer {
		t.Fatalf("sniffer stats differ:\n%+v\n%+v", a.Sniffer, b.Sniffer)
	}
	// Compare the rendered reports: they cover every counter table.
	if ra, rb := a.Render(services, 20), b.Render(services, 20); ra != rb {
		t.Fatalf("summaries differ:\n--- a ---\n%s\n--- b ---\n%s", ra, rb)
	}
}

// scalarCracker hides a backend's a51.BatchCracker implementation, so
// the rigs resolve every crack through the per-session Recover path:
// the test-only scalar chain-replay reference, passed in through
// Config.Cracker.
type scalarCracker struct{ a51.Cracker }

// TestCampaignBatchReplayMatchesScalar pins the batched chain-replay
// contract at campaign scale: resolving every fresh crack of a shard's
// trace through one 64-lane a51.RecoverBatch call must produce a
// byte-identical Summary — same crack, cache-hit and Kc-reuse
// counters, same per-victim outcomes — as the per-session scalar
// chain replay of scalarCracker, on a fixed seed.
func TestCampaignBatchReplayMatchesScalar(t *testing.T) {
	scenarios := []Scenario{
		{}, // paper baseline: 20% A5/0, rest A5/1, reauth skip 0.6
		{Radio: RadioEnv{A50Fraction: 0.3, A53Fraction: 0.3, OTPSessions: 2}},
		{Radio: RadioEnv{A50Fraction: -1, ReauthSkip: -1},
			Budget: AttackerBudget{Receivers: 8, CellChannels: 16}},
	}
	pop := testPop(t, 1500, 256)
	table := sharedCracker(t, Config{Population: pop, KeyBits: 10})
	for i, sc := range scenarios {
		var rendered [2]string
		for j, cracker := range []a51.Cracker{table, scalarCracker{table}} {
			sum := runCampaign(t, Config{
				Population: pop, KeyBits: 10, Workers: 3,
				Cracker: cracker, Scenario: sc,
			})
			zeroClock(sum)
			rendered[j] = sum.Render(pop.Services(), 25)
		}
		if rendered[0] != rendered[1] {
			t.Errorf("scenario %d: batch-replay and scalar-replay summaries differ:\n--- batch ---\n%s\n--- scalar ---\n%s",
				i, rendered[0], rendered[1])
		}
	}
}

// TestCampaignWorkerRace drives the worker pool hard with many small
// shards so `go test -race` exercises the shared cracker, the global
// sharded leak DB and the streaming aggregation concurrently.
func TestCampaignWorkerRace(t *testing.T) {
	pop := testPop(t, 3000, 128) // 24 shards
	sum := runCampaign(t, Config{Population: pop, KeyBits: 10, Workers: 8})
	if sum.Subscribers != 3000 {
		t.Fatalf("Subscribers = %d", sum.Subscribers)
	}
}

func TestCampaignCoverageAndCipherKnobs(t *testing.T) {
	pop := testPop(t, 1200, 256)
	sum := runCampaign(t, Config{
		Population: pop, KeyBits: 10, Workers: 2,
		Scenario: Scenario{
			Radio:  RadioEnv{A50Fraction: -1, ReauthSkip: -1, OTPSessions: 1},
			Budget: AttackerBudget{Receivers: 8, CellChannels: 16},
		},
	})
	if sum.Covered == 0 || sum.Covered == sum.Subscribers {
		t.Errorf("coverage 0.5 covered %d of %d", sum.Covered, sum.Subscribers)
	}
	frac := float64(sum.Covered) / float64(sum.Subscribers)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("coverage fraction = %.2f want ~0.5", frac)
	}
	if sum.A50Sessions != 0 {
		t.Errorf("A50Fraction<0 still produced %d plaintext sessions", sum.A50Sessions)
	}
	if sum.Sniffer.KcReuseHits != 0 {
		t.Errorf("single-session victims cannot hit the reuse cache: %+v", sum.Sniffer)
	}
	if sum.Sessions != sum.Covered {
		t.Errorf("sessions %d != covered %d with OTPSessions=1", sum.Sessions, sum.Covered)
	}
}

func TestCampaignPlatformRestriction(t *testing.T) {
	pop := testPop(t, 800, 256)
	web := runCampaign(t, Config{Population: pop, KeyBits: 10, Scenario: Scenario{Platform: "web"}})
	both := runCampaign(t, Config{Population: pop, KeyBits: 10})
	if web.AccountsCompromised == 0 {
		t.Fatal("web-only campaign compromised nothing")
	}
	if web.AccountsCompromised >= both.AccountsCompromised {
		t.Errorf("web-only (%d) should take fewer accounts than both platforms (%d)",
			web.AccountsCompromised, both.AccountsCompromised)
	}
}

func TestCampaignContextCancel(t *testing.T) {
	pop := testPop(t, 5000, 64)
	eng, err := New(Config{Population: pop, KeyBits: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx); err != context.Canceled {
		t.Fatalf("Run on canceled ctx = %v", err)
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil population accepted")
	}
	pop := testPop(t, 10, 10)
	if _, err := New(Config{Population: pop, Backend: "nope"}); err == nil {
		t.Error("unknown backend accepted")
	}
	for _, sc := range []Scenario{
		{Policy: "nope"},
		{Platform: "gopher"},
		{Radio: RadioEnv{A50Fraction: 0.7, A53Fraction: 0.7}},
		{Segment: VictimSegment{Domain: "astrology"}},
		{Segment: VictimSegment{LeakTier: "vip"}},
	} {
		if _, err := New(Config{Population: pop, Backend: "bitsliced", Scenario: sc}); err == nil {
			t.Errorf("invalid scenario %+v accepted", sc)
		}
	}
}

func TestSummaryRender(t *testing.T) {
	pop := testPop(t, 600, 200)
	sum := runCampaign(t, Config{Population: pop, KeyBits: 10})
	out := sum.Render(pop.Services(), 5)
	for _, want := range []string{
		"Campaign summary", "subscribers", "Account takeovers by chain depth",
		"Victims by deepest chain", "Top 5 services", "Personal information harvested",
		"Kc reuse cache",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if sum.Duration <= 0 || sum.Duration > time.Hour {
		t.Errorf("implausible duration %v", sum.Duration)
	}
}
