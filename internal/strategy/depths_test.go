package strategy

import (
	"testing"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/tdg"
)

func TestAccountDepths(t *testing.T) {
	g := fixtureGraph(t)
	depths := Solve(g).AccountDepths()
	want := map[string]int{
		"gmail/web": 1, "ctrip/web": 1, "shop/web": 1,
		"paypal/web": 2, "alipay/web": 2, "bank/web": 2,
		"vault/web":    3,
		"fortress/web": Unreachable,
	}
	for _, id := range g.Nodes() {
		if got := depths[id]; got != want[id.String()] {
			t.Errorf("depth(%s) = %d want %d", id, got, want[id.String()])
		}
	}
}

func TestAccountDepthsAgreeWithClosureRounds(t *testing.T) {
	g := fixtureGraph(t)
	depths := Solve(g).AccountDepths()
	res, err := ForwardClosure(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range g.Nodes() {
		c, fell := res.Compromised[id]
		if fell && depths[id] != c.Round {
			t.Errorf("%s: depth %d vs closure round %d", id, depths[id], c.Round)
		}
		if !fell && depths[id] != Unreachable {
			t.Errorf("%s survived closure but depth = %d", id, depths[id])
		}
	}
}

func TestPathLayersBasic(t *testing.T) {
	g := fixtureGraph(t)
	st := Solve(g).DepthStats()
	if st.Total != 8 {
		t.Fatalf("Total = %d", st.Total)
	}
	if st.Direct != 3 {
		t.Errorf("Direct = %d want 3", st.Direct)
	}
	if st.OneMiddle != 3 { // paypal, alipay, and bank's depth-2 couple
		t.Errorf("OneMiddle = %d want 3", st.OneMiddle)
	}
	if st.Uncompromisable != 1 {
		t.Errorf("Uncompromisable = %d want 1", st.Uncompromisable)
	}
	if got := st.Pct(st.Direct); got < 37.4 || got > 37.6 {
		t.Errorf("Pct = %.2f", got)
	}
	if (DepthStats{}).Pct(1) != 0 {
		t.Error("empty Pct should be 0")
	}
}

// Overlapping semantics: an account that is both directly
// compromisable AND has an info-path must count in both categories.
func TestPathLayersOverlap(t *testing.T) {
	web := ecosys.PlatformWeb
	nodes := []tdg.Node{
		{
			ID: aid("multi", web),
			Paths: []ecosys.AuthPath{
				{ID: "r1", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorCellphone, ecosys.FactorSMSCode}},
				{ID: "r2", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorSMSCode, ecosys.FactorCitizenID}},
			},
		},
		{
			ID:      aid("leaky", web),
			Paths:   []ecosys.AuthPath{{ID: "s", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorSMSCode}}},
			Exposes: ecosys.NewInfoSet(ecosys.InfoCitizenID),
		},
	}
	g, err := tdg.Build(nodes, ecosys.BaselineAttacker())
	if err != nil {
		t.Fatal(err)
	}
	st := Solve(g).DepthStats()
	if st.Direct != 2 {
		t.Errorf("Direct = %d want 2", st.Direct)
	}
	if st.OneMiddle != 1 {
		t.Errorf("OneMiddle = %d want 1 (multi counts in both)", st.OneMiddle)
	}
}

// Depth-3 classification: full-capacity route vs couple route.
func TestPathLayersDepth3Classification(t *testing.T) {
	web := ecosys.PlatformWeb
	nodes := []tdg.Node{
		// Layer 1: fringe exposing citizen ID.
		{
			ID:      aid("l1", web),
			Paths:   []ecosys.AuthPath{{ID: "s", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorSMSCode}}},
			Exposes: ecosys.NewInfoSet(ecosys.InfoCitizenID, ecosys.InfoRealName),
		},
		// Layer 2: needs CID; exposes bankcard.
		{
			ID:      aid("l2", web),
			Paths:   []ecosys.AuthPath{{ID: "r", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorSMSCode, ecosys.FactorCitizenID}}},
			Exposes: ecosys.NewInfoSet(ecosys.InfoBankcard),
		},
		// Layer 3 full: needs BN only (l2 alone covers it).
		{
			ID:    aid("l3full", web),
			Paths: []ecosys.AuthPath{{ID: "r", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorSMSCode, ecosys.FactorBankcard}}},
		},
		// Layer 3 couple: needs Name+BN (l1 gives Name, l2 gives BN).
		{
			ID:    aid("l3couple", web),
			Paths: []ecosys.AuthPath{{ID: "r", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorRealName, ecosys.FactorBankcard}}},
		},
	}
	g, err := tdg.Build(nodes, ecosys.BaselineAttacker())
	if err != nil {
		t.Fatal(err)
	}
	depths := Solve(g).AccountDepths()
	if depths[aid("l3full", web)] != 3 || depths[aid("l3couple", web)] != 3 {
		t.Fatalf("depths = %v", depths)
	}
	st := Solve(g).DepthStats()
	if st.TwoLayerFull != 1 {
		t.Errorf("TwoLayerFull = %d want 1", st.TwoLayerFull)
	}
	if st.TwoLayerCouple != 1 {
		t.Errorf("TwoLayerCouple = %d want 1", st.TwoLayerCouple)
	}
}

func TestAccountDepthsCycleSafe(t *testing.T) {
	web := ecosys.PlatformWeb
	nodes := []tdg.Node{
		{
			ID:      aid("a", web),
			Paths:   []ecosys.AuthPath{{ID: "r", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorSMSCode, ecosys.FactorRealName}}},
			Exposes: ecosys.NewInfoSet(ecosys.InfoCitizenID),
		},
		{
			ID:      aid("b", web),
			Paths:   []ecosys.AuthPath{{ID: "r", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorSMSCode, ecosys.FactorCitizenID}}},
			Exposes: ecosys.NewInfoSet(ecosys.InfoRealName),
		},
	}
	g, err := tdg.Build(nodes, ecosys.BaselineAttacker())
	if err != nil {
		t.Fatal(err)
	}
	depths := Solve(g).AccountDepths()
	if depths[aid("a", web)] != Unreachable || depths[aid("b", web)] != Unreachable {
		t.Errorf("cyclic depths = %v, want both Unreachable", depths)
	}
}

func BenchmarkDepthStats(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Solve(g).DepthStats()
	}
}
