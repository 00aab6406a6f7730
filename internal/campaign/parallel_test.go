package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/faultinject"
)

// phaseCounts maps a summary's PhaseTimings to how often each phase
// ran — its wall-clock-independent shape.
func phaseCounts(sum *Summary) map[string]int64 {
	m := make(map[string]int64, len(sum.PhaseTimings))
	for _, pt := range sum.PhaseTimings {
		m[pt.Phase] = pt.Count
	}
	return m
}

// phaseShapeErr compares a run's phase counts with a fresh sequential
// run's of the same scenario. The engine's radio memo decides per shard
// whether the radio stage ran (synth, encrypt, feed, crack) or was
// replayed (radio_memo), and under overlapping runs which one happens
// depends on timing. So the shape that must hold is: every shard took
// exactly one of the two — synth + radio_memo equals the fresh run's
// synth — and closure and aggregate ran as often as in the fresh run.
// It returns "" when the shapes agree.
func phaseShapeErr(fresh, got map[string]int64) string {
	if n := got["synth"] + got["radio_memo"]; n != fresh["synth"] {
		return fmt.Sprintf("synth %d + radio_memo %d = %d, want the fresh run's synth %d",
			got["synth"], got["radio_memo"], n, fresh["synth"])
	}
	for _, p := range []string{"closure", "aggregate"} {
		if got[p] != fresh[p] {
			return fmt.Sprintf("%s count %d, want the fresh run's %d", p, got[p], fresh[p])
		}
	}
	return ""
}

// mixedScenarios is a sweep list that alternates radio environments
// (three share the baseline radio, one switches to an A5/3 mix), so it
// exercises rig reuse across environments and plan-cache sharing.
func mixedScenarios() []Scenario {
	return []Scenario{
		{Name: "baseline"},
		{Name: "a53", Radio: RadioEnv{A50Fraction: -1, A53Fraction: 0.6}},
		{Name: "fortified", Policy: "fortify-all"},
		{Name: "budget", Budget: AttackerBudget{Receivers: 4, CellChannels: 16}},
	}
}

// TestConcurrentRunScenario is the tentpole contract: RunScenario on
// ONE engine must be safe to call from concurrent goroutines (run
// under -race in CI) and every concurrent call must produce the same
// summary as a sequential run of the same scenario on a fresh engine,
// with a PhaseTimings shape that phaseShapeErr accepts.
func TestConcurrentRunScenario(t *testing.T) {
	pop := testPop(t, 2048, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: 4}
	cfg.Cracker = sharedCracker(t, cfg)
	scenarios := mixedScenarios()

	want := make([]string, len(scenarios))
	wantPhases := make([]map[string]int64, len(scenarios))
	for i, sc := range scenarios {
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := eng.RunScenario(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		wantPhases[i] = phaseCounts(sum)
		zeroClock(sum)
		want[i] = sum.Render(pop.Services(), 10)
	}

	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(scenarios))
	gotPhases := make([]map[string]int64, len(scenarios))
	errs := make([]error, len(scenarios))
	var wg sync.WaitGroup
	for i, sc := range scenarios {
		wg.Add(1)
		go func(i int, sc Scenario) {
			defer wg.Done()
			sum, err := eng.RunScenario(context.Background(), sc)
			if err != nil {
				errs[i] = err
				return
			}
			gotPhases[i] = phaseCounts(sum)
			zeroClock(sum)
			got[i] = sum.Render(pop.Services(), 10)
		}(i, sc)
	}
	wg.Wait()
	for i, sc := range scenarios {
		if errs[i] != nil {
			t.Fatalf("concurrent scenario %s: %v", sc.Name, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("scenario %s: concurrent summary differs from sequential:\n--- sequential ---\n%s\n--- concurrent ---\n%s",
				sc.Name, want[i], got[i])
		}
		if msg := phaseShapeErr(wantPhases[i], gotPhases[i]); msg != "" {
			t.Errorf("scenario %s: %s (fresh %v, concurrent %v)", sc.Name, msg, wantPhases[i], gotPhases[i])
		}
	}
}

// TestSweepParallelMatchesSequential pins RunSweep's parallel
// invariant: with SweepParallel > 1 the SweepSummary must be
// byte-identical (modulo wall-clock fields) to the sequential sweep —
// input-order results, same summaries — and every scenario's
// PhaseTimings shape, sequential or parallel, must be one
// phaseShapeErr accepts against a fresh run of that scenario.
func TestSweepParallelMatchesSequential(t *testing.T) {
	pop := testPop(t, 2048, 128)
	base := Config{Population: pop, KeyBits: 10, Workers: 4}
	base.Cracker = sharedCracker(t, base)
	scenarios := mixedScenarios()

	fresh := make([]map[string]int64, len(scenarios))
	for i, sc := range scenarios {
		eng, err := New(base)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := eng.RunScenario(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = phaseCounts(sum)
	}

	runSweep := func(parallel int) *SweepSummary {
		cfg := base
		cfg.SweepParallel = parallel
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := eng.RunSweep(context.Background(), scenarios)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range sw.Results {
			if msg := phaseShapeErr(fresh[i], phaseCounts(r.Summary)); msg != "" {
				t.Errorf("parallel=%d scenario %s: %s", parallel, r.Scenario.Name, msg)
			}
		}
		normalizeClock(sw)
		return sw
	}

	seq := runSweep(1)
	par := runSweep(4)
	for i := range scenarios {
		if par.Results[i].Scenario.Name != scenarios[i].Name {
			t.Fatalf("parallel sweep result %d is %q, want input order %q",
				i, par.Results[i].Scenario.Name, scenarios[i].Name)
		}
	}
	seqRender := seq.Render(pop.Services(), 10)
	parRender := par.Render(pop.Services(), 10)
	if seqRender != parRender {
		t.Errorf("parallel sweep differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seqRender, parRender)
	}
}

// TestSweepMixedRadioEnvRigPool pins the shard slots' rig bound: sweeps
// alternating radio environments, two scenarios at a time, build at
// most one rig per worker however the scenarios interleave, and each
// sweep reports its own construction delta, not the engine's lifetime
// count.
func TestSweepMixedRadioEnvRigPool(t *testing.T) {
	const workers = 4
	pop := testPop(t, 2048, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: workers, SweepParallel: 2}
	cfg.Cracker = sharedCracker(t, cfg)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two distinct radio environments, each appearing twice, interleaved.
	sw, err := eng.RunSweep(context.Background(), []Scenario{
		{Name: "base-1"},
		{Name: "a53-1", Radio: RadioEnv{A50Fraction: -1, A53Fraction: 0.6}},
		{Name: "base-2", Policy: "harden-email"},
		{Name: "a53-2", Radio: RadioEnv{A50Fraction: -1, A53Fraction: 0.6}, Policy: "harden-email"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sw2, err := eng.RunSweep(context.Background(), []Scenario{
		{Name: "base-1"},
		{Name: "a53-1", Radio: RadioEnv{A50Fraction: -1, A53Fraction: 0.6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	built := eng.RigsBuilt()
	if built > workers {
		t.Errorf("rigs built = %d, want <= %d workers", built, workers)
	}
	if sw.RigsBuilt+sw2.RigsBuilt != built {
		t.Errorf("sweep deltas %d + %d != engine RigsBuilt %d", sw.RigsBuilt, sw2.RigsBuilt, built)
	}
}

// TestRigsBoundedAcrossRadioEnvs sends 1,000 distinct radio
// environments to one engine — the request stream a resident query
// service sees from clients varying a50Fraction — and checks that rig
// constructions stay within the worker count: rigs live in the shard
// slots, not in a per-environment pool.
func TestRigsBoundedAcrossRadioEnvs(t *testing.T) {
	const workers = 3
	pop := testPop(t, 512, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: workers}
	cfg.Cracker = sharedCracker(t, cfg)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A one-receiver fleet over 64 channels keeps each run cheap; every
	// shard still checks a rig out.
	budget := AttackerBudget{Receivers: 1, CellChannels: 64}
	for i := 0; i < 1000; i++ {
		sc := Scenario{Radio: RadioEnv{A50Fraction: float64(i+1) / 2000, OTPSessions: 1}, Budget: budget}
		if _, err := eng.RunScenario(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
	}
	if built := eng.RigsBuilt(); built > workers {
		t.Errorf("rigs built = %d after 1000 radio environments, want <= %d workers", built, workers)
	}
}

// TestSweepParallelCheckpointResume kills a parallel checkpointed
// sweep with an injected crash mid-journal, then resumes it over the
// same directory tree: the resumed sweep must reproduce the clean
// sweep's results byte for byte (modulo wall-clock fields).
func TestSweepParallelCheckpointResume(t *testing.T) {
	pop := testPop(t, 2048, 128) // 16 shards per scenario
	base := Config{Population: pop, KeyBits: 10, Workers: 2, SweepParallel: 2}
	base.Cracker = sharedCracker(t, base)
	scenarios := []Scenario{
		{Name: "baseline"},
		{Name: "fortified", Policy: "fortify-all"},
		{Name: "a53", Radio: RadioEnv{A50Fraction: -1, A53Fraction: 0.6}},
	}

	clean, err := func() (*SweepSummary, error) {
		eng, err := New(base)
		if err != nil {
			return nil, err
		}
		return eng.RunSweep(context.Background(), scenarios)
	}()
	if err != nil {
		t.Fatal(err)
	}
	normalizeClock(clean)
	want := clean.Render(pop.Services(), 10)

	dir := t.TempDir()
	crashed := base
	crashed.Checkpoint = &Checkpoint{Dir: dir, SnapshotEvery: 4}
	// The 20th journal append across the overlapping scenarios crashes
	// the "process": roughly mid-sweep, with both in-flight scenarios
	// partially journaled.
	crashed.Fault, err = faultinject.New(faultinject.Config{
		Crash: map[faultinject.Point]int{faultinject.PointJournalAppend: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunSweep(context.Background(), scenarios); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("crashing sweep returned %v, want ErrCrash", err)
	}

	resume := base
	resume.Checkpoint = &Checkpoint{Dir: dir, SnapshotEvery: 4}
	eng, err = New(resume)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := eng.RunSweep(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	normalizeClock(sw)
	if got := sw.Render(pop.Services(), 10); got != want {
		t.Errorf("resumed parallel sweep differs from clean run:\n--- clean ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// TestScenarioProgress checks the scenario-aware progress hook: under
// a parallel sweep every scenario's callback carries its own name and
// reaches completion.
func TestScenarioProgress(t *testing.T) {
	pop := testPop(t, 1024, 128)
	var (
		mu      sync.Mutex
		final   = map[string]int{}
		totalOK = true
	)
	cfg := Config{
		Population: pop, KeyBits: 10, Workers: 2, SweepParallel: 3,
		ScenarioProgress: func(scenario string, done, total int) {
			mu.Lock()
			final[scenario] = done
			if total != pop.Size() {
				totalOK = false
			}
			mu.Unlock()
		},
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := []Scenario{
		{Name: "baseline"},
		{Name: "fortified", Policy: "fortify-all"},
		{Name: "a53", Radio: RadioEnv{A50Fraction: -1, A53Fraction: 0.6}},
	}
	sw, err := eng.RunSweep(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !totalOK {
		t.Errorf("ScenarioProgress saw a total != population size %d", pop.Size())
	}
	for _, sc := range scenarios {
		if got := final[sc.Name]; got != pop.Size() {
			t.Errorf("scenario %s: last progress done = %d, want %d", sc.Name, got, pop.Size())
		}
	}
	for i, r := range sw.Results {
		if r.Summary == nil {
			t.Fatalf("result %d (%s) has no summary", i, r.Scenario.Name)
		}
		if r.Duration <= 0 {
			t.Errorf("scenario %s: Duration = %v, want > 0", r.Scenario.Name, r.Duration)
		}
	}
	if sw.Duration < time.Duration(0) {
		t.Errorf("sweep Duration = %v", sw.Duration)
	}
}
