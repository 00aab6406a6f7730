package dataset

import (
	"testing"

	"github.com/actfort/actfort/internal/authproc"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/strategy"
	"github.com/actfort/actfort/internal/tdg"
)

func TestSyntheticValidAndScales(t *testing.T) {
	for _, n := range []int{10, 100, 500} {
		cat, err := Synthetic(n, 7)
		if err != nil {
			t.Fatal(err)
		}
		if cat.Len() != n+3 { // + the anchor mail providers
			t.Errorf("Synthetic(%d) = %d services", n, cat.Len())
		}
		if errs := authproc.ValidateCatalog(cat); len(errs) != 0 {
			t.Fatalf("Synthetic(%d) invalid: %v", n, errs[0])
		}
	}
	if _, err := Synthetic(0, 1); err == nil {
		t.Error("Synthetic(0) accepted")
	}
}

func TestSyntheticShapeHolds(t *testing.T) {
	cat, err := Synthetic(400, 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tdg.Build(tdg.NodesFromCatalog(cat, ecosys.PlatformWeb), ecosys.BaselineAttacker())
	if err != nil {
		t.Fatal(err)
	}
	st := strategy.Solve(g).DepthStats()
	directPct := st.Pct(st.Direct)
	if directPct < 60 || directPct > 90 {
		t.Errorf("synthetic direct = %.1f%%, expected near the calibrated ~74%%", directPct)
	}
	if st.Uncompromisable == 0 {
		t.Error("synthetic catalog has no secure accounts")
	}
}

func TestSyntheticDeterministicPerSeed(t *testing.T) {
	a, err := Synthetic(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthetic(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Services(), b.Services()
	for i := range sa {
		if sa[i].Name != sb[i].Name || len(sa[i].Presences[0].Paths) != len(sb[i].Presences[0].Paths) {
			t.Fatalf("seeded synthetic differs at %d", i)
		}
	}
	c, err := Synthetic(50, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range sa {
		if len(sa[i].Presences[0].Exposes) != len(c.Services()[i].Presences[0].Exposes) {
			same = false
			break
		}
	}
	if same {
		t.Log("seeds 3 and 4 produced identical exposure counts (possible but unlikely)")
	}
}
