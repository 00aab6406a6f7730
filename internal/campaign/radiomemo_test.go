package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/faultinject"
	"github.com/actfort/actfort/internal/obs"
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
// input would hand a scenario another key's radio stages. Then, on an
// engine of its own per scenario, the three kinds of shard attack run
// in turn — the primer's radio stages, the memo hit that makes the
// shard's closure inputs resident, the resident hit — and each run
// must equal the fresh engine's Summary. Last, inputs made resident
// under a narrow radio key must serve every scenario.
func TestRadioMemoEquivalence(t *testing.T) {
	pop := testPop(t, 1024, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: 2}
	cfg.Cracker = sharedCracker(t, cfg)
	newEngine := func(cfg Config) *Engine {
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	scenarios := memoScenarios()
	want := make([]string, len(scenarios))
	for i, sc := range scenarios {
		want[i] = string(canonicalSummary(t, runOn(t, newEngine(cfg), sc)))
	}
	warm := newEngine(cfg)
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

	for i, sc := range scenarios {
		traced := cfg
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		tw, err := obs.OpenTraceFile(path)
		if err != nil {
			t.Fatal(err)
		}
		traced.Trace = tw
		eng := newEngine(traced)
		runOn(t, eng, memoPrimer(sc)) // a cold engine: every run so far is fresh
		for run := 2; run <= 3; run++ {
			if got := string(canonicalSummary(t, runOn(t, eng, sc))); got != want[i] {
				t.Errorf("scenario %s run %d: summary differs from fresh:\nfresh %s\ngot   %s", sc.Name, run, want[i], got)
			}
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		runs := traceRuns(t, path)
		for r, wantDetail := range []string{"", "radio_memo", "resident"} {
			done := int64(0)
			for _, ev := range runs[r] {
				if ev.Event != "shard_done" {
					continue
				}
				done++
				if ev.Detail != wantDetail {
					t.Errorf("scenario %s run %d shard %d: shard_done detail %q, want %q", sc.Name, r+1, ev.Shard, ev.Detail, wantDetail)
				}
			}
			if done != shards {
				t.Errorf("scenario %s run %d: %d shards done, want %d", sc.Name, r+1, done, shards)
			}
		}
	}

	// Closure inputs are population facts: made resident under a narrow
	// radio key — one segment, one receiver — they must serve every
	// other key, on its radio misses and on its hits.
	narrow := newEngine(cfg)
	n := Scenario{Name: "narrow", Segment: VictimSegment{Domain: "email", LeakTier: LeakTierBreach},
		Budget: AttackerBudget{Receivers: 1, CellChannels: 7}}
	runOn(t, narrow, n)
	runOn(t, narrow, n)
	for pass := 1; pass <= 2; pass++ {
		for i, sc := range scenarios {
			if got := string(canonicalSummary(t, runOn(t, narrow, sc))); got != want[i] {
				t.Errorf("scenario %s pass %d after a narrow fill: summary differs from fresh:\nfresh %s\ngot   %s",
					sc.Name, pass, want[i], got)
			}
		}
	}
}

// traceRuns reads a trace of sequential runs and returns each run's
// events after its run_start.
func traceRuns(t *testing.T, path string) [][]obs.TraceEvent {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var runs [][]obs.TraceEvent
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev obs.TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if ev.Event == "run_start" {
			runs = append(runs, nil)
		} else if len(runs) > 0 {
			runs[len(runs)-1] = append(runs[len(runs)-1], ev)
		}
	}
	return runs
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
// radio stage either run or replayed exactly once. A primer with the
// same key runs first, so the first round's two runs both hit the memo
// on every shard and race to make its closure inputs resident; later
// rounds read them.
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
	runOn(t, eng, Scenario{Name: "primer", Policy: "harden-email"})
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
		if round == 0 {
			var bytes int64
			for shard := range eng.resident {
				in := eng.resident[shard].Load()
				if in == nil {
					t.Fatalf("shard %d: closure inputs not resident after its second attack", shard)
				}
				bytes += in.bytes()
			}
			if got := eng.residentBytes.Load(); got != bytes {
				t.Errorf("resident bytes %d, want the entries' %d (a lost fill race counted twice?)", got, bytes)
			}
		}
	}
	if got := eng.RigsBuilt(); got > int64(cfg.Workers) {
		t.Errorf("rigs built = %d, want <= %d workers", got, cfg.Workers)
	}
}

// TestResidentFaultsStillApply runs one scenario three times on a
// fault-injected engine — cold, the memo hit that makes closure inputs
// resident, the resident hit. The fault schedule runs before the memo
// or the resident inputs are consulted, so the warm runs still retry
// the transient shards and quarantine the poisoned one, and every run
// equals a fresh engine's Summary under the same faults.
func TestResidentFaultsStillApply(t *testing.T) {
	pop := testPop(t, 2048, 128) // 16 shards
	cfg := Config{Population: pop, KeyBits: 10, Workers: 2, MaxShardAttempts: 40,
		RetryBackoff: time.Microsecond, RetryBackoffMax: 10 * time.Microsecond}
	cfg.Cracker = sharedCracker(t, Config{Population: pop, KeyBits: 10})
	in, err := faultinject.New(faultinject.Config{Seed: 3, TransientRate: 0.5, Poisoned: []int{5}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = in
	want := string(canonicalSummary(t, runCampaign(t, cfg)))

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tw, err := obs.OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = tw
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 3; run++ {
		sum := runOn(t, eng, Scenario{})
		if sum.ShardsQuarantined != 1 {
			t.Errorf("run %d: %d shards quarantined, want the poisoned one", run, sum.ShardsQuarantined)
		}
		if got := string(canonicalSummary(t, sum)); got != want {
			t.Errorf("run %d: summary differs from a fresh faulty run:\nfresh %s\ngot   %s", run, want, got)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	runs := traceRuns(t, path)
	retries, quarantines := make([]int, len(runs)), make([]int, len(runs))
	for run, events := range runs {
		for _, ev := range events {
			switch ev.Event {
			case "shard_retry":
				retries[run]++
			case "shard_quarantine":
				if ev.Shard != 5 {
					t.Errorf("run %d quarantined shard %d, want only the poisoned 5", run+1, ev.Shard)
				}
				quarantines[run]++
			case "shard_done":
				if run == 2 && ev.Detail != "resident" {
					t.Errorf("run 3 shard %d: shard_done detail %q, want resident", ev.Shard, ev.Detail)
				}
			}
		}
	}
	if len(runs) != 3 {
		t.Fatalf("trace holds %d runs, want 3", len(runs))
	}
	for run := range runs {
		if retries[run] == 0 || retries[run] != retries[0] || quarantines[run] != 1 {
			t.Errorf("run %d: %d retries and %d quarantines, want run 1's %d (nonzero) and 1",
				run+1, retries[run], quarantines[run], retries[0])
		}
	}
}
