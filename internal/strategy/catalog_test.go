package strategy_test

import (
	"testing"

	"github.com/actfort/actfort/internal/countermeasure"
	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/strategy"
	"github.com/actfort/actfort/internal/tdg"
)

// TestClosureMatchesReferenceOnCatalog runs the oracle over the
// calibrated ecosystem: the default catalog under every built-in
// countermeasure policy, on web, mobile and both platforms.
func TestClosureMatchesReferenceOnCatalog(t *testing.T) {
	base, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	deepest := 0
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
			got, want := strategy.AccountDepths(g), strategy.ReferenceDepths(g)
			for _, id := range g.Nodes() {
				if got[id] != want[id] {
					t.Errorf("%s %v %s: closure depth %d, reference %d", pol.Name, plats, id, got[id], want[id])
				}
				if d := got[id]; d != strategy.Unreachable && d > deepest {
					deepest = d
				}
			}
			if got, want := strategy.PathLayers(g), strategy.ReferencePathLayers(g); got != want {
				t.Errorf("%s %v: PathLayers %+v, reference %+v", pol.Name, plats, got, want)
			}
		}
	}
	if deepest < 3 {
		t.Fatalf("deepest catalog chain is %d, want ≥ 3", deepest)
	}
}
