package campaign

import (
	"context"
	"strings"
	"testing"
)

// sweepEngine builds a fresh engine over a fresh population for sweep
// tests.
func sweepEngine(t *testing.T, size, shard, workers int) *Engine {
	t.Helper()
	eng, err := New(Config{Population: testPop(t, size, shard), KeyBits: 10, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// normalizeClock zeroes every wall-clock-dependent field so rendered
// sweeps compare byte for byte.
func normalizeClock(sw *SweepSummary) {
	sw.Duration = 0
	sw.RigsBuilt = 0
	for i := range sw.Results {
		sw.Results[i].Duration = 0
		zeroClock(sw.Results[i].Summary)
	}
}

// TestSweepDeterministic pins the sweep half of the determinism
// property: the same seed and scenario list must reproduce a
// byte-identical comparative summary (wall-clock fields excluded).
func TestSweepDeterministic(t *testing.T) {
	renders := make([]string, 2)
	for i := range renders {
		eng := sweepEngine(t, 1500, 256, 3)
		sw, err := eng.RunSweep(context.Background(), DefaultSweep())
		if err != nil {
			t.Fatal(err)
		}
		normalizeClock(sw)
		renders[i] = sw.Render(eng.cfg.Population.Services(), 20)
	}
	if renders[0] != renders[1] {
		t.Fatalf("sweeps differ:\n--- a ---\n%s\n--- b ---\n%s", renders[0], renders[1])
	}
}

// TestSweepFortificationReducesTakeoverMass is the golden property of
// the paper's second half: a fortified catalog must STRICTLY reduce
// ecosystem-wide takeover mass against the same population, and the
// full program must beat the email-only hardening.
func TestSweepFortificationReducesTakeoverMass(t *testing.T) {
	eng := sweepEngine(t, 2000, 512, 4)
	sw, err := eng.RunSweep(context.Background(), []Scenario{
		{Name: "baseline"},
		{Name: "harden-email", Policy: "harden-email"},
		{Name: "fortified", Policy: "fortify-all"},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := sw.Results[0].Summary
	email := sw.Results[1].Summary
	full := sw.Results[2].Summary
	if base.AccountsCompromised == 0 {
		t.Fatal("baseline compromised nothing; the comparison is vacuous")
	}
	if email.AccountsCompromised >= base.AccountsCompromised {
		t.Errorf("harden-email takeover mass %d !< baseline %d",
			email.AccountsCompromised, base.AccountsCompromised)
	}
	if full.AccountsCompromised >= email.AccountsCompromised {
		t.Errorf("fortify-all takeover mass %d !< harden-email %d",
			full.AccountsCompromised, email.AccountsCompromised)
	}
	// Interception is a radio property: policies must not change it.
	if base.Intercepted != email.Intercepted || base.Intercepted != full.Intercepted {
		t.Errorf("catalog policies changed interception: %d / %d / %d",
			base.Intercepted, email.Intercepted, full.Intercepted)
	}
}

// TestSweepA53MixShrinksInterception checks the radio-environment
// axis: upgrading cells to A5/3 must cut interception (and the rig
// must record the abandoned sessions) without touching the catalog.
func TestSweepA53MixShrinksInterception(t *testing.T) {
	eng := sweepEngine(t, 1500, 256, 3)
	sw, err := eng.RunSweep(context.Background(), []Scenario{
		{Name: "baseline"},
		{Name: "a53", Radio: RadioEnv{A50Fraction: -1, A53Fraction: 0.6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, a53 := sw.Results[0].Summary, sw.Results[1].Summary
	if a53.Intercepted >= base.Intercepted {
		t.Errorf("A5/3 mix intercepted %d !< baseline %d", a53.Intercepted, base.Intercepted)
	}
	if a53.A53Sessions == 0 || a53.Sniffer.A53Abandoned == 0 {
		t.Errorf("A5/3 sessions unrecorded: sessions %d abandoned %d",
			a53.A53Sessions, a53.Sniffer.A53Abandoned)
	}
	if a53.AccountsCompromised >= base.AccountsCompromised {
		t.Errorf("A5/3 mix takeover mass %d !< baseline %d",
			a53.AccountsCompromised, base.AccountsCompromised)
	}
}

// TestSweepRigReuse pins the resource-sharing contract: every shard of
// every scenario reuses the rigs of the engine's shard slots, so total
// rig constructions stay bounded by the worker count instead of
// growing per scenario or per shard.
func TestSweepRigReuse(t *testing.T) {
	const workers = 4
	eng := sweepEngine(t, 2000, 128, workers) // 16 shards × 3 scenarios
	_, err := eng.RunSweep(context.Background(), []Scenario{
		{Name: "baseline"},
		{Name: "harden-email", Policy: "harden-email"},
		{Name: "fortified", Policy: "fortify-all"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if built := eng.RigsBuilt(); built > workers {
		t.Errorf("rigs built = %d, want <= %d (pool must reuse rigs across shards and scenarios)", built, workers)
	}
}

// TestSweepRaceSharedState drives a sweep with many small shards and a
// wide pool so `go test -race` exercises the rig pool, the plan cache,
// the shared cracker and the leak DB across scenario boundaries.
func TestSweepRaceSharedState(t *testing.T) {
	eng := sweepEngine(t, 3000, 128, 8)
	sw, err := eng.RunSweep(context.Background(), DefaultSweep())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sw.Results {
		if r.Summary.Subscribers != 3000 {
			t.Fatalf("scenario %s processed %d subscribers", r.Scenario.Name, r.Summary.Subscribers)
		}
	}
}

// TestSweepSegmentation checks the victim-cohort axis: domain and
// leak-tier segments must strictly shrink the targeted set, and the
// leaked/clean tiers must partition it.
func TestSweepSegmentation(t *testing.T) {
	eng := sweepEngine(t, 1500, 256, 3)
	sw, err := eng.RunSweep(context.Background(), []Scenario{
		{Name: "all"},
		{Name: "fintech", Segment: VictimSegment{Domain: "fintech"}},
		{Name: "leaked", Segment: VictimSegment{LeakTier: LeakTierLeaked}},
		{Name: "clean", Segment: VictimSegment{LeakTier: LeakTierClean}},
	})
	if err != nil {
		t.Fatal(err)
	}
	all := sw.Results[0].Summary
	fintech := sw.Results[1].Summary
	leaked := sw.Results[2].Summary
	clean := sw.Results[3].Summary
	if all.Targeted != all.Subscribers {
		t.Errorf("unsegmented run targeted %d of %d", all.Targeted, all.Subscribers)
	}
	if fintech.Targeted == 0 || fintech.Targeted >= all.Targeted {
		t.Errorf("fintech segment targeted %d of %d", fintech.Targeted, all.Targeted)
	}
	if leaked.Targeted == 0 || clean.Targeted == 0 || leaked.Targeted+clean.Targeted != all.Targeted {
		t.Errorf("leak tiers do not partition: leaked %d + clean %d != %d",
			leaked.Targeted, clean.Targeted, all.Targeted)
	}
	// Clean victims have no dossier by construction.
	if clean.DossierHits != 0 {
		t.Errorf("clean cohort had %d dossier hits", clean.DossierHits)
	}
}

// TestSweepDuplicateNamesRejected guards the comparative tables, which
// key on scenario names.
func TestSweepDuplicateNamesRejected(t *testing.T) {
	eng := sweepEngine(t, 200, 100, 2)
	_, err := eng.RunSweep(context.Background(), []Scenario{{Name: "x"}, {Name: "x"}})
	if err == nil || !strings.Contains(err.Error(), "duplicate scenario name") {
		t.Fatalf("err = %v", err)
	}
}

// TestLoadScenarios exercises the declarative scenario-file loader.
func TestLoadScenarios(t *testing.T) {
	src := `[
	  {"name": "baseline"},
	  {"name": "fortified", "policy": "fortify-all"},
	  {"name": "a53", "radio": {"a50Fraction": -1, "a53Fraction": 0.5},
	   "budget": {"receivers": 8, "cellChannels": 16},
	   "segment": {"domain": "fintech", "leakTier": "leaked"}}
	]`
	list, err := LoadScenarios(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 || list[2].Budget.Receivers != 8 || list[2].Segment.Domain != "fintech" {
		t.Fatalf("loaded %+v", list)
	}
	if _, err := LoadScenarios(strings.NewReader(`[{"name": "x", "typo": 1}]`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := LoadScenarios(strings.NewReader(`[]`)); err == nil {
		t.Fatal("empty scenario list accepted")
	}
}

// TestSweepRenderAndJSON smoke-checks the comparative renderer and the
// machine-readable export.
func TestSweepRenderAndJSON(t *testing.T) {
	eng := sweepEngine(t, 600, 200, 2)
	sw, err := eng.RunSweep(context.Background(), nil) // nil = DefaultSweep
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Results) != 3 {
		t.Fatalf("default sweep ran %d scenarios", len(sw.Results))
	}
	out := sw.Render(eng.cfg.Population.Services(), 5)
	for _, want := range []string{
		"Fortification sweep", "Takeover mass by scenario", "baseline",
		"fortified", "a53-mix", "Per-service takeovers", "Δ accounts vs baseline",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep report missing %q:\n%s", want, out)
		}
	}
}
