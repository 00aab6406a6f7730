package campaign

import (
	"context"
	"errors"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/actfort/actfort/internal/faultinject"
	"github.com/actfort/actfort/internal/strategy"
)

// groupScenarios is a sweep list whose plan groups cover every shape a
// run takes: the built-in shelf (baseline, a53-mix, budget-4of16 and
// fintech-leaked share the baseline plan; fortified and harden-email
// each have their own), harden-email on the web platform with two
// scenarios that differ only in their name, and a mobile-platform group
// of a53-mix and budget-4of16 without a baseline, whose union of
// intercepted victims is sparse, so member lanes go through compress.
func groupScenarios() []Scenario {
	a53, _ := BuiltinScenario("a53-mix")
	budget, _ := BuiltinScenario("budget-4of16")
	twin := Scenario{Policy: "harden-email", Platform: "web", Budget: AttackerBudget{Receivers: 8, CellChannels: 16}}
	twin1, twin2 := twin, twin
	twin1.Name, twin2.Name = "twin-1", "twin-2"
	a53.Name, a53.Platform = "a53-mobile", "mobile"
	budget.Name, budget.Platform = "budget-mobile", "mobile"
	return append(BuiltinScenarios(),
		Scenario{Name: "harden-email-web", Policy: "harden-email", Platform: "web"},
		twin1, twin2, a53, budget)
}

// TestSweepGroupsMatchRunScenario pins the grouped run's contract: a
// sweep that runs each plan group as one run — solving each block once
// and folding it into every member through its lanes — reports for
// every scenario the Summary RunScenario reports for it alone on a
// fresh engine, with a phase shape phaseShapeErr accepts, at one and
// three runs in flight, on a cold engine and again once it is warm
// (radio stages memoized, closure inputs resident).
func TestSweepGroupsMatchRunScenario(t *testing.T) {
	pop := testPop(t, 2048, 128)
	cfg := Config{Population: pop, KeyBits: 10, Workers: 2}
	cfg.Cracker = sharedCracker(t, cfg)
	scenarios := groupScenarios()
	if groups := planGroups(mustNormalizeSweep(t, scenarios)); len(groups) != 5 {
		t.Fatalf("%d plan groups, want 5", len(groups))
	}

	want := make([]string, len(scenarios))
	wantPhases := make([]map[string]int64, len(scenarios))
	for i, sc := range scenarios {
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := runOn(t, fresh, sc)
		want[i] = string(canonicalSummary(t, sum))
		wantPhases[i] = phaseCounts(sum)
	}
	for _, parallel := range []int{1, 3} {
		c := cfg
		c.SweepParallel = parallel
		eng, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			sw, err := eng.RunSweep(context.Background(), scenarios)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range sw.Results {
				if r.Summary == nil {
					t.Fatalf("parallel=%d %s: scenario %s: %s", parallel, pass, scenarios[i].Name, r.Error)
				}
				if got := string(canonicalSummary(t, r.Summary)); got != want[i] {
					t.Errorf("parallel=%d %s: scenario %s differs from RunScenario:\nsweep %s\nrun   %s",
						parallel, pass, scenarios[i].Name, got, want[i])
				}
				if msg := phaseShapeErr(wantPhases[i], phaseCounts(r.Summary)); msg != "" {
					t.Errorf("parallel=%d %s: scenario %s: %s", parallel, pass, scenarios[i].Name, msg)
				}
			}
		}
	}
}

// mustNormalizeSweep normalizes a sweep list as RunSweep does.
func mustNormalizeSweep(t *testing.T, scenarios []Scenario) []Scenario {
	t.Helper()
	norm, err := NormalizeSweep(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

// TestSweepSolvesEachVictimOncePerPlan is the grouped sweep's work
// golden, on sweep-4x250k's scenario list: baseline, a53-mix and
// budget-4of16 share a plan and so a run, fortified runs alone. The
// closure counters must rise by one lane per victim some member of a
// group intercepted — the union, not the sum, of the members'
// interceptions — and by ⌈union/256⌉ blocks per shard and group.
func TestSweepSolvesEachVictimOncePerPlan(t *testing.T) {
	eng, err := New(Config{Population: testPop(t, 10000, 1024), Workers: 2, KeyBits: 10, SweepParallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	scenarios := make([]Scenario, 0, 4)
	for _, name := range []string{"baseline", "fortified", "a53-mix", "budget-4of16"} {
		sc, _ := BuiltinScenario(name)
		scenarios = append(scenarios, sc)
	}
	blocks0, lanes0 := metClosureBlocks.Value(), metClosureLanes.Value()
	sw, err := eng.RunSweep(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	blocks, lanes := metClosureBlocks.Value()-blocks0, metClosureLanes.Value()-lanes0

	norm := mustNormalizeSweep(t, scenarios)
	var wantBlocks, wantLanes, sumIntercepted int64
	for _, g := range planGroups(norm) {
		for shard := range eng.resident {
			union := make([]uint64, (eng.cfg.Population.ShardSize()+63)/64)
			for _, i := range g {
				sc := norm[i]
				memo := eng.memo.shards(radioKey{radio: sc.Radio, budget: sc.Budget, segment: sc.Segment}, len(eng.resident))
				for w, x := range memo.entries[shard].Load().intercepted {
					union[w] |= x
				}
			}
			n := int64(0)
			for _, x := range union {
				n += int64(bits.OnesCount64(x))
			}
			wantLanes += n
			wantBlocks += (n + strategy.BlockLanes - 1) / strategy.BlockLanes
		}
	}
	for _, r := range sw.Results {
		sumIntercepted += r.Summary.Intercepted
	}
	if lanes != wantLanes {
		t.Errorf("campaign_closure_lanes_total +%d, want the groups' unions %d (the scenarios intercepted %d)", lanes, wantLanes, sumIntercepted)
	}
	if blocks != wantBlocks {
		t.Errorf("campaign_closure_blocks_total +%d, want %d (⌈union/256⌉ per shard and group)", blocks, wantBlocks)
	}
	if wantLanes >= sumIntercepted {
		t.Errorf("groups' unions %d are not below the scenarios' %d interceptions: nothing was shared", wantLanes, sumIntercepted)
	}
}

// TestSweepGroupCheckpointResume crashes a checkpointed sweep whose
// one run carries baseline and a53 so that their journals stop at
// different shards — one worker sends each shard's parts in member
// order, so the sixth append, torn, leaves baseline one shard ahead —
// and resumes it: the run must attack each shard only for the members
// still needing it and reproduce the clean sweep's render.
func TestSweepGroupCheckpointResume(t *testing.T) {
	pop := testPop(t, 2048, 128) // 16 shards
	base := Config{Population: pop, KeyBits: 10, Workers: 1}
	base.Cracker = sharedCracker(t, base)
	scenarios := []Scenario{
		{Name: "baseline"},
		{Name: "a53", Radio: RadioEnv{A50Fraction: -1, A53Fraction: 0.6}},
	}
	clean, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := clean.RunSweep(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	normalizeClock(sw)
	want := sw.Render(pop.Services(), 10)

	dir := t.TempDir()
	crashed := base
	crashed.Checkpoint = &Checkpoint{Dir: dir, SnapshotEvery: 2}
	crashed.Fault, err = faultinject.New(faultinject.Config{
		Crash: map[faultinject.Point]int{faultinject.PointJournalAppend: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(crashed)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.RunSweep(context.Background(), scenarios)
	if !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("crashing sweep returned %v, want ErrCrash", err)
	}
	if !strings.HasPrefix(err.Error(), "campaign: scenario a53: ") {
		t.Errorf("crashing sweep returned %q, want it to name a53, whose journal crashed", err)
	}

	resume := base
	resume.Checkpoint = &Checkpoint{Dir: dir, SnapshotEvery: 2}
	eng, err = New(resume)
	if err != nil {
		t.Fatal(err)
	}
	var done [][]bool
	for _, sc := range mustNormalizeSweep(t, scenarios) {
		ck, err := eng.openCheckpoint(filepath.Join(dir, sc.Name), sc)
		if err != nil {
			t.Fatal(err)
		}
		done = append(done, ck.done)
		ck.j.Close()
	}
	if slices.Equal(done[0], done[1]) {
		t.Fatalf("both members journaled shards %v: the crash left nothing to resume apart", done[0])
	}
	sw, err = eng.RunSweep(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	normalizeClock(sw)
	if got := sw.Render(pop.Services(), 10); got != want {
		t.Errorf("resumed grouped sweep differs from clean run:\n--- clean ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// TestSweepGroupFaults runs sweep-4x250k's scenario list under poisoned
// and transiently failing shards: the fault schedule is a function of
// (shard, attempt), so every member of a grouped run must report the
// quarantines, coverage and Summary its RunScenario reports under the
// same faults. It then checkpoints the sweep and makes a53-mix's
// snapshot fail: the journal error must be a53-mix's alone, and the
// members it shares a run with must keep their Summaries.
func TestSweepGroupFaults(t *testing.T) {
	pop := testPop(t, 2048, 128) // 16 shards
	cfg := Config{Population: pop, KeyBits: 10, Workers: 2, SweepParallel: 2, MaxShardAttempts: 3}
	cfg.Cracker = sharedCracker(t, Config{Population: pop, KeyBits: 10})
	in, err := faultinject.New(faultinject.Config{Seed: 3, TransientRate: 0.4, Poisoned: []int{3, 11}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = in
	scenarios := make([]Scenario, 0, 4)
	for _, name := range []string{"baseline", "fortified", "a53-mix", "budget-4of16"} {
		sc, _ := BuiltinScenario(name)
		scenarios = append(scenarios, sc)
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := eng.RunSweep(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scenarios {
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		alone := runOn(t, fresh, sc)
		got := sw.Results[i].Summary
		if alone.ShardsQuarantined < 2 {
			t.Fatalf("scenario %s: RunScenario quarantined %d shards, want at least the 2 poisoned", sc.Name, alone.ShardsQuarantined)
		}
		if got.ShardsQuarantined != alone.ShardsQuarantined || got.CoverageFraction != alone.CoverageFraction {
			t.Errorf("scenario %s: sweep quarantined %d shards at coverage %g, RunScenario %d at %g",
				sc.Name, got.ShardsQuarantined, got.CoverageFraction, alone.ShardsQuarantined, alone.CoverageFraction)
		}
		if g, w := canonicalSummary(t, got), canonicalSummary(t, alone); string(g) != string(w) {
			t.Errorf("scenario %s: sweep row differs from RunScenario under the same faults:\nsweep %s\nrun   %s", sc.Name, g, w)
		}
	}

	// A directory where a53-mix's snapshot goes makes its first snapshot
	// rename fail, planted at its first merged shard.
	dir := t.TempDir()
	var plant sync.Once
	ckCfg := cfg
	ckCfg.Checkpoint = &Checkpoint{Dir: dir, SnapshotEvery: 2}
	ckCfg.ScenarioProgress = func(name string, _, _ int) {
		if name == "a53-mix" {
			plant.Do(func() {
				if err := os.MkdirAll(filepath.Join(dir, name, "snapshot.bin", "x"), 0o755); err != nil {
					t.Error(err)
				}
			})
		}
	}
	eng, err = New(ckCfg)
	if err != nil {
		t.Fatal(err)
	}
	broken, err := eng.RunSweep(context.Background(), scenarios)
	if err != nil {
		t.Fatalf("a journal error aborted the sweep: %v", err)
	}
	for i, r := range broken.Results {
		if scenarios[i].Name == "a53-mix" {
			if r.Summary != nil || !strings.Contains(r.Error, "snapshot rename") {
				t.Errorf("a53-mix: summary %v, error %q; want its snapshot rename error", r.Summary != nil, r.Error)
			}
			continue
		}
		if r.Summary == nil {
			t.Errorf("scenario %s failed with a53-mix's journal: %s", scenarios[i].Name, r.Error)
			continue
		}
		if g, w := canonicalSummary(t, r.Summary), canonicalSummary(t, sw.Results[i].Summary); string(g) != string(w) {
			t.Errorf("scenario %s: row beside a failed journal differs:\ngot  %s\nwant %s", scenarios[i].Name, g, w)
		}
	}
}

// TestPlanGroupsSplit checks that a plan group larger than maxRunMembers
// splits into runs of at most maxRunMembers in input order, and that
// runs keep the order of their first scenario.
func TestPlanGroupsSplit(t *testing.T) {
	var norm []Scenario
	var wantA, wantB []int
	for i := range 2*maxRunMembers + 2 {
		norm = append(norm, Scenario{Name: "a" + strconv.Itoa(i)})
		wantA = append(wantA, len(norm)-1)
		if i == 1 || i == 100 {
			norm = append(norm, Scenario{Name: "b" + strconv.Itoa(i), Policy: "fortify-all"})
			wantB = append(wantB, len(norm)-1)
		}
	}
	got := planGroups(norm)
	want := [][]int{wantA[:maxRunMembers], wantB, wantA[maxRunMembers : 2*maxRunMembers], wantA[2*maxRunMembers:]}
	if len(got) != len(want) {
		t.Fatalf("%d runs of %v, want %d", len(got), lens(got), len(want))
	}
	for k := range want {
		if !slices.Equal(got[k], want[k]) {
			t.Errorf("run %d is %v, want %v", k, got[k], want[k])
		}
	}
}

// lens is the length of each run.
func lens(groups [][]int) []int {
	n := make([]int, len(groups))
	for k, g := range groups {
		n[k] = len(g)
	}
	return n
}
