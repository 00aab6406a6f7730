package campaign

import (
	"context"
	"sync"
	"testing"
)

// memoScenarios is every built-in scenario plus the radio keys the
// shelf does not reach: one and two OTP sessions, a partial fleet, a
// narrow victim segment and a web-only platform.
func memoScenarios() []Scenario {
	return append(BuiltinScenarios(),
		Scenario{Name: "otp1", Radio: RadioEnv{OTPSessions: 1}},
		Scenario{Name: "otp2", Radio: RadioEnv{OTPSessions: 2}},
		Scenario{Name: "budget-3of7", Budget: AttackerBudget{Receivers: 3, CellChannels: 7}},
		Scenario{Name: "email-breach", Segment: VictimSegment{Domain: "email", LeakTier: LeakTierBreach}},
		Scenario{Name: "web-harden", Platform: "web", Policy: "harden-email"},
	)
}

// memoPrimer is a scenario with sc's radio key but a different policy
// or platform, so running it first leaves sc's radio stages in the
// memo without sc's chain reactions.
func memoPrimer(sc Scenario) Scenario {
	p := sc
	p.Name = sc.Name + "-primer"
	switch {
	case sc.Platform == "web":
		p.Platform = "both"
	case sc.Policy == "":
		p.Policy = "fortify-all"
	default:
		p.Policy = ""
	}
	return p
}

// runOn runs sc on eng, failing the test on error.
func runOn(t *testing.T, eng *Engine, sc Scenario) *Summary {
	t.Helper()
	sum, err := eng.RunScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestRadioMemoEquivalence: one engine runs every scenario's primer —
// the same radio key, a different policy or platform — and then every
// scenario. Each scenario must take all its radio stages from the memo
// and still report a Summary byte-identical to a fresh engine's. The
// primers' keys all fit the memo at once, so a key missing any radio
// input would hand a scenario another key's radio stages.
func TestRadioMemoEquivalence(t *testing.T) {
	pop := testPop(t, 1024, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: 2}
	cfg.Cracker = sharedCracker(t, cfg)
	newEngine := func() *Engine {
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	scenarios := memoScenarios()
	want := make([]string, len(scenarios))
	for i, sc := range scenarios {
		want[i] = string(canonicalSummary(t, runOn(t, newEngine(), sc)))
	}
	warm := newEngine()
	for _, sc := range scenarios {
		runOn(t, warm, memoPrimer(sc))
	}
	if n := len(warm.memo.keys); n > radioMemoMax {
		t.Fatalf("primers left %d radio keys, more than the memo keeps (%d)", n, radioMemoMax)
	}
	shards := int64(pop.NumShards())
	for i, sc := range scenarios {
		sum := runOn(t, warm, sc)
		phases := phaseCounts(sum)
		if phases["radio_memo"] != shards || phases["synth"] != 0 {
			t.Errorf("scenario %s: radio_memo %d synth %d, want every one of %d shards from the memo",
				sc.Name, phases["radio_memo"], phases["synth"], shards)
		}
		if got := string(canonicalSummary(t, sum)); got != want[i] {
			t.Errorf("scenario %s: warm summary differs from fresh:\nfresh %s\nwarm  %s", sc.Name, want[i], got)
		}
	}
}

// TestRadioMemoBound sends 1,000 distinct radio environments to one
// engine: the memo keeps at most radioMemoMax of them, the most recent
// one still answers from the memo, and an evicted one recomputes to
// the Summary a fresh engine reports.
func TestRadioMemoBound(t *testing.T) {
	pop := testPop(t, 512, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: 2}
	cfg.Cracker = sharedCracker(t, cfg)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A one-receiver fleet over 64 channels keeps each run cheap.
	budget := AttackerBudget{Receivers: 1, CellChannels: 64}
	scenario := func(i int) Scenario {
		return Scenario{Radio: RadioEnv{A50Fraction: float64(i+1) / 2000, OTPSessions: 1}, Budget: budget}
	}
	for i := 0; i < 1000; i++ {
		runOn(t, eng, scenario(i))
	}
	if n := len(eng.memo.keys); n > radioMemoMax {
		t.Fatalf("memo holds %d radio environments, want <= %d", n, radioMemoMax)
	}
	shards := int64(pop.NumShards())
	if got := phaseCounts(runOn(t, eng, scenario(999)))["radio_memo"]; got != shards {
		t.Errorf("most recent environment: radio_memo %d, want %d", got, shards)
	}

	evicted := runOn(t, eng, scenario(0))
	if got := phaseCounts(evicted)["radio_memo"]; got != 0 {
		t.Errorf("evicted environment: radio_memo %d, want a full recompute", got)
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalSummary(t, runOn(t, fresh, scenario(0)))
	if got := canonicalSummary(t, evicted); string(got) != string(want) {
		t.Errorf("recomputed summary differs from fresh:\nfresh %s\ngot   %s", want, got)
	}
}

// TestRadioMemoConcurrentRuns runs baseline and fortified — one radio
// key, two policies — concurrently on one engine, several rounds: the
// runs race to fill and read the same memo entries (run under -race in
// CI), and every result must equal a fresh engine's, with each shard's
// radio stage either run or replayed exactly once.
func TestRadioMemoConcurrentRuns(t *testing.T) {
	pop := testPop(t, 2048, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: 4}
	cfg.Cracker = sharedCracker(t, cfg)
	scenarios := []Scenario{{Name: "baseline"}, {Name: "fortified", Policy: "fortify-all"}}

	want := make([]string, len(scenarios))
	wantPhases := make([]map[string]int64, len(scenarios))
	for i, sc := range scenarios {
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := runOn(t, fresh, sc)
		wantPhases[i] = phaseCounts(sum)
		want[i] = string(canonicalSummary(t, sum))
	}

	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		sums := make([]*Summary, len(scenarios))
		errs := make([]error, len(scenarios))
		var wg sync.WaitGroup
		for i, sc := range scenarios {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sums[i], errs[i] = eng.RunScenario(context.Background(), sc)
			}()
		}
		wg.Wait()
		for i, sc := range scenarios {
			if errs[i] != nil {
				t.Fatalf("round %d scenario %s: %v", round, sc.Name, errs[i])
			}
			if got := string(canonicalSummary(t, sums[i])); got != want[i] {
				t.Errorf("round %d scenario %s: summary differs from fresh:\nfresh %s\ngot   %s", round, sc.Name, want[i], got)
			}
			if msg := phaseShapeErr(wantPhases[i], phaseCounts(sums[i])); msg != "" {
				t.Errorf("round %d scenario %s: %s", round, sc.Name, msg)
			}
		}
	}
	if got := eng.RigsBuilt(); got > int64(cfg.Workers) {
		t.Errorf("rigs built = %d, want <= %d workers", got, cfg.Workers)
	}
}
