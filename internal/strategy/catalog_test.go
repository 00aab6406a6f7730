package strategy_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/actfort/actfort/internal/countermeasure"
	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/strategy"
	"github.com/actfort/actfort/internal/tdg"
)

// catalogGraph is one graph of the calibrated ecosystem.
type catalogGraph struct {
	name string // "policy [platforms]"
	g    *tdg.Graph
}

// catalogGraphs builds the calibrated ecosystem's graphs: the default
// catalog under every built-in countermeasure policy, on web, mobile
// and both platforms.
func catalogGraphs(t *testing.T) []catalogGraph {
	t.Helper()
	base, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	var out []catalogGraph
	for _, pol := range countermeasure.Policies() {
		cat, err := pol.Apply(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, plats := range [][]ecosys.Platform{
			{ecosys.PlatformWeb}, {ecosys.PlatformMobile}, nil,
		} {
			g, err := tdg.Build(tdg.NodesFromCatalog(cat, plats...), ecosys.BaselineAttacker())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, catalogGraph{fmt.Sprint(pol.Name, " ", plats), g})
		}
	}
	return out
}

// TestClosureMatchesReferenceOnCatalog runs the oracle over the
// calibrated ecosystem.
func TestClosureMatchesReferenceOnCatalog(t *testing.T) {
	deepest := 0
	for _, cg := range catalogGraphs(t) {
		name, g := cg.name, cg.g
		sol := strategy.Solve(g)
		got, want := sol.AccountDepths(), strategy.ReferenceDepths(g)
		for _, id := range g.Nodes() {
			if got[id] != want[id] {
				t.Errorf("%s %s: closure depth %d, reference %d", name, id, got[id], want[id])
			}
			if d := got[id]; d != strategy.Unreachable && d > deepest {
				deepest = d
			}
		}
		if got, want := sol.DepthStats(), strategy.ReferenceDepthStats(g); got != want {
			t.Errorf("%s: DepthStats %+v, reference %+v", name, got, want)
		}
	}
	if deepest < 3 {
		t.Fatalf("deepest catalog chain is %d, want ≥ 3", deepest)
	}
}

// TestPathClasses checks CompileClosure's path classes on random
// ecosystems and on the calibrated one under every policy, through
// CheckPathClasses, and pins the catalog's class counts on both
// platforms: 46 classes for 243 accounts, 11 of which have no compiled
// path, and 8 under fortify-all, where 168 accounts have none.
func TestPathClasses(t *testing.T) {
	shared, pathless := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		g, err := strategy.RandomGraph(seed, 2+int(seed%30))
		if err != nil {
			t.Fatal(err)
		}
		classes, none, err := strategy.CheckPathClasses(g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		shared += g.Len() - none - classes
		pathless += none
	}
	if shared == 0 || pathless == 0 {
		t.Fatalf("random ecosystems: %d accounts shared a class, %d had no compiled path; the check never saw both", shared, pathless)
	}
	want := map[string][3]int{
		"none []":        {243, 46, 11},
		"fortify-all []": {243, 8, 168},
	}
	for _, cg := range catalogGraphs(t) {
		classes, none, err := strategy.CheckPathClasses(cg.g)
		if err != nil {
			t.Fatalf("%s: %v", cg.name, err)
		}
		if w, ok := want[cg.name]; ok && (cg.g.Len() != w[0] || classes != w[1] || none != w[2]) {
			t.Errorf("%s: %d accounts, %d path classes, %d without a compiled path; want %v", cg.name, cg.g.Len(), classes, none, w)
		}
	}
}

// TestFindPlanMatchesClosureOnCatalog holds the backward search to the
// closure on the calibrated ecosystem: Plan succeeds exactly on the
// accounts the closure takes over, and each plan is executable, as
// deep as the account's closure depth and no longer than the reference
// searcher's. The searcher, bounded by the couple file, lost or
// deepened 18 of these plans under harden-email.
func TestFindPlanMatchesClosureOnCatalog(t *testing.T) {
	for _, cg := range catalogGraphs(t) {
		name, g := cg.name, cg.g
		sol := strategy.Solve(g)
		depths := sol.AccountDepths()
		ref := strategy.ReferencePlans(g, g.Len()+1, 1)
		for _, id := range g.Nodes() {
			plan, err := sol.Plan(id, g.Len()+1)
			if (err == nil) != (depths[id] != strategy.Unreachable) {
				t.Errorf("%s %s: closure depth %d, Plan: %v", name, id, depths[id], err)
				continue
			}
			if err != nil {
				continue
			}
			if err := strategy.CheckPlan(g, plan); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if plan.Depth() != depths[id] {
				t.Errorf("%s %s: plan %s has depth %d, the closure %d", name, id, plan, plan.Depth(), depths[id])
			}
			if r := ref[id]; len(r) > 0 && len(plan.Steps) > len(r[0].Steps) {
				t.Errorf("%s %s: plan %s is longer than the searcher's %s", name, id, plan, r[0])
			}
		}
	}
}

// TestFindPlansOnCatalog checks Plans's contract on the default
// catalog: up to limit distinct executable plans, the first being
// Plan's, within the depth bound, and no fewer or shallower than
// the reference searcher lists.
func TestFindPlansOnCatalog(t *testing.T) {
	base, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	const limit = 3
	for _, plats := range [][]ecosys.Platform{{ecosys.PlatformWeb}, {ecosys.PlatformMobile}, nil} {
		g, err := tdg.Build(tdg.NodesFromCatalog(base, plats...), ecosys.BaselineAttacker())
		if err != nil {
			t.Fatal(err)
		}
		ref := strategy.ReferencePlans(g, 0, limit)
		sol := strategy.Solve(g)
		for _, id := range g.Nodes() {
			plans, err := sol.Plans(id, 0, limit)
			first, firstErr := sol.Plan(id, 0)
			if err != nil {
				if firstErr == nil || len(ref[id]) > 0 {
					t.Errorf("%v %s: Plans: %v", plats, id, err)
				}
				continue
			}
			if len(plans) > limit || !reflect.DeepEqual(plans[0], first) {
				t.Errorf("%v %s: %d plans, first %s, Plan's %s", plats, id, len(plans), plans[0], first)
			}
			if len(plans) < len(ref[id]) {
				t.Errorf("%v %s: %d plans, the searcher %d", plats, id, len(plans), len(ref[id]))
			}
			seen := make(map[string]bool)
			for i, p := range plans {
				if err := strategy.CheckPlan(g, p); err != nil || seen[p.String()] || p.Depth() > 5 {
					t.Errorf("%v %s: plan %d %s (depth %d, repeated %v): %v", plats, id, i, p, p.Depth(), seen[p.String()], err)
				}
				seen[p.String()] = true
				if i < len(ref[id]) && p.Depth() > ref[id][i].Depth() {
					t.Errorf("%v %s: plan %d %s deeper than the searcher's %s", plats, id, i, p, ref[id][i])
				}
			}
		}
	}
}
