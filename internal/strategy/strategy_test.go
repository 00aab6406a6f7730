package strategy

import (
	"errors"
	"strings"
	"testing"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/tdg"
)

func aid(s string, p ecosys.Platform) ecosys.AccountID {
	return ecosys.AccountID{Service: s, Platform: p}
}

// fixture: gmail and ctrip are fringe; paypal needs gmail; alipay
// needs ctrip; bank needs {Name+CID+BN} = couple {ctrip, shop};
// fortress is U2F-only; vault needs paypal's exposure (depth 3).
func fixtureGraph(t *testing.T) *tdg.Graph {
	t.Helper()
	web := ecosys.PlatformWeb
	nodes := []tdg.Node{
		{
			ID: aid("gmail", web), Domain: ecosys.DomainEmail,
			Paths: []ecosys.AuthPath{
				{ID: "reset-1", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorCellphone, ecosys.FactorSMSCode}},
			},
			Exposes: ecosys.NewInfoSet(ecosys.InfoEmailAddress, ecosys.InfoAcquaintance),
		},
		{
			ID: aid("ctrip", web), Domain: ecosys.DomainTravel,
			Paths: []ecosys.AuthPath{
				{ID: "signin-1", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorCellphone, ecosys.FactorSMSCode}},
			},
			Exposes: ecosys.NewInfoSet(ecosys.InfoCitizenID, ecosys.InfoRealName),
		},
		{
			ID: aid("shop", web), Domain: ecosys.DomainECommerce,
			Paths: []ecosys.AuthPath{
				{ID: "signin-1", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorSMSCode}},
			},
			Exposes: ecosys.NewInfoSet(ecosys.InfoBankcard),
		},
		{
			ID: aid("paypal", web), Domain: ecosys.DomainFintech,
			Paths: []ecosys.AuthPath{
				{ID: "reset-1", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorSMSCode, ecosys.FactorEmailCode}},
			},
			Exposes:       ecosys.NewInfoSet(ecosys.InfoAddress, ecosys.InfoUserID),
			EmailProvider: "gmail",
		},
		{
			ID: aid("alipay", web), Domain: ecosys.DomainFintech,
			Paths: []ecosys.AuthPath{
				{ID: "reset-1", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorSMSCode, ecosys.FactorCitizenID}},
			},
			Exposes: ecosys.NewInfoSet(ecosys.InfoBankcard, ecosys.InfoRealName),
		},
		{
			ID: aid("bank", web), Domain: ecosys.DomainFintech,
			Paths: []ecosys.AuthPath{
				{ID: "reset-1", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorRealName, ecosys.FactorCitizenID, ecosys.FactorBankcard}},
			},
		},
		{
			ID: aid("vault", web), Domain: ecosys.DomainCloud,
			Paths: []ecosys.AuthPath{
				{ID: "reset-1", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorSMSCode, ecosys.FactorUserID}},
			},
		},
		{
			ID: aid("fortress", web), Domain: ecosys.DomainFintech,
			Paths: []ecosys.AuthPath{
				{ID: "signin-1", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorU2F}},
			},
		},
	}
	g, err := tdg.Build(nodes, ecosys.BaselineAttacker())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestForwardClosureFromScratch(t *testing.T) {
	g := fixtureGraph(t)
	res, err := ForwardClosure(g, nil)
	if err != nil {
		t.Fatal(err)
	}

	wantRound := map[string]int{
		"gmail/web": 1, "ctrip/web": 1, "shop/web": 1,
		"paypal/web": 2, "alipay/web": 2, "bank/web": 2,
		"vault/web": 3, // needs paypal's exposed user ID
	}
	for name, round := range wantRound {
		var found *Compromise
		for id, c := range res.Compromised {
			if id.String() == name {
				cc := c
				found = &cc
			}
		}
		if found == nil {
			t.Errorf("%s never compromised", name)
			continue
		}
		if found.Round != round {
			t.Errorf("%s fell in round %d want %d", name, found.Round, round)
		}
	}
	if len(res.Survivors) != 1 || res.Survivors[0].Service != "fortress" {
		t.Errorf("survivors = %v want [fortress/web]", res.Survivors)
	}
	if res.VictimCount() != 7 {
		t.Errorf("VictimCount = %d want 7", res.VictimCount())
	}
	if len(res.Rounds) != 3 {
		t.Errorf("rounds = %d want 3", len(res.Rounds))
	}
	// IAD accumulated the bankcard exposure.
	if !res.FinalInfo[ecosys.InfoBankcard] {
		t.Error("final IAD missing bankcard info")
	}
}

func TestForwardClosureWithInitialSet(t *testing.T) {
	g := fixtureGraph(t)
	// Handing the attacker a compromised paypal up front short-cuts
	// vault to round 1.
	res, err := ForwardClosure(g, []ecosys.AccountID{aid("paypal", ecosys.PlatformWeb)})
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Compromised[aid("paypal", ecosys.PlatformWeb)]; c.Round != 0 {
		t.Errorf("initial account round = %d want 0", c.Round)
	}
	if c := res.Compromised[aid("vault", ecosys.PlatformWeb)]; c.Round != 1 {
		t.Errorf("vault round = %d want 1", c.Round)
	}
	if _, err := ForwardClosure(g, []ecosys.AccountID{aid("nope", ecosys.PlatformWeb)}); err == nil {
		t.Error("unknown initial account accepted")
	}
}

func TestFindPlanDirect(t *testing.T) {
	g := fixtureGraph(t)
	plan, err := Solve(g).Plan(aid("gmail", ecosys.PlatformWeb), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].PathID != "reset-1" || len(plan.Steps[0].Parents) != 0 {
		t.Errorf("plan = %+v", plan)
	}
	if plan.Depth() != 1 {
		t.Errorf("Depth = %d want 1", plan.Depth())
	}
}

func TestFindPlanTwoHop(t *testing.T) {
	g := fixtureGraph(t)
	plan, err := Solve(g).Plan(aid("paypal", ecosys.PlatformWeb), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.String() != "gmail/web -> paypal/web" {
		t.Errorf("plan = %s", plan)
	}
	if plan.Depth() != 2 {
		t.Errorf("Depth = %d want 2", plan.Depth())
	}
}

func TestFindPlanCouple(t *testing.T) {
	g := fixtureGraph(t)
	plan, err := Solve(g).Plan(aid("bank", ecosys.PlatformWeb), 0)
	if err != nil {
		t.Fatal(err)
	}
	last := plan.Steps[len(plan.Steps)-1]
	if last.Account.Service != "bank" || len(last.Parents) < 2 {
		t.Errorf("bank step = %+v", last)
	}
	// All parents must appear earlier in the plan.
	position := make(map[ecosys.AccountID]int)
	for i, s := range plan.Steps {
		position[s.Account] = i
	}
	for i, s := range plan.Steps {
		for _, parent := range s.Parents {
			pi, ok := position[parent]
			if !ok || pi >= i {
				t.Errorf("step %d (%s) depends on %s which is not earlier", i, s.Account, parent)
			}
		}
	}
}

func TestFindPlanUnreachable(t *testing.T) {
	g := fixtureGraph(t)
	if _, err := Solve(g).Plan(aid("fortress", ecosys.PlatformWeb), 0); !errors.Is(err, ErrNoPlan) {
		t.Errorf("fortress err = %v want ErrNoPlan", err)
	}
	if _, err := Solve(g).Plan(aid("ghost", ecosys.PlatformWeb), 0); !errors.Is(err, ErrUnknownTarget) {
		t.Errorf("unknown target err = %v", err)
	}
}

func TestFindPlanDepthBound(t *testing.T) {
	g := fixtureGraph(t)
	// vault requires paypal (depth 3); a depth bound of 2 must fail.
	if _, err := Solve(g).Plan(aid("vault", ecosys.PlatformWeb), 2); !errors.Is(err, ErrNoPlan) {
		t.Errorf("depth-bounded err = %v want ErrNoPlan", err)
	}
	plan, err := Solve(g).Plan(aid("vault", ecosys.PlatformWeb), 3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Depth() != 3 {
		t.Errorf("vault Depth = %d want 3", plan.Depth())
	}
	if !strings.Contains(plan.String(), "gmail/web") || !strings.Contains(plan.String(), "paypal/web") {
		t.Errorf("vault plan = %s", plan)
	}
}

func TestPlanAgreesWithForwardClosure(t *testing.T) {
	// Consistency: every account the closure compromises has a plan,
	// and every survivor has none.
	g := fixtureGraph(t)
	s := Solve(g)
	res := s.Forward()
	for _, id := range g.Nodes() {
		_, planErr := s.Plan(id, 0)
		_, fell := res.Compromised[id]
		if fell && planErr != nil {
			t.Errorf("%s compromised by closure but Plan failed: %v", id, planErr)
		}
		if !fell && planErr == nil {
			t.Errorf("%s survived closure but Plan succeeded", id)
		}
	}
}

func TestCycleTermination(t *testing.T) {
	// a and b expose each other's missing factor but neither is
	// fringe: the search must terminate with ErrNoPlan.
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
	if _, err := Solve(g).Plan(aid("a", web), 0); !errors.Is(err, ErrNoPlan) {
		t.Errorf("cyclic graph err = %v want ErrNoPlan", err)
	}
	// And the closure agrees: nothing falls.
	res, err := ForwardClosure(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.VictimCount() != 0 {
		t.Errorf("cyclic closure compromised %d accounts", res.VictimCount())
	}
}

func TestFindPlansDiversity(t *testing.T) {
	g := fixtureGraph(t)
	plans, err := Solve(g).Plans(aid("bank", ecosys.PlatformWeb), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no plans")
	}
	seen := make(map[string]bool)
	for _, p := range plans {
		if seen[p.String()] {
			t.Errorf("duplicate plan %s", p)
		}
		seen[p.String()] = true
		if p.Target.Service != "bank" {
			t.Errorf("plan target = %v", p.Target)
		}
	}
}

func BenchmarkForwardClosure(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ForwardClosure(g, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlan times one plan read off a solution solved once.
func BenchmarkPlan(b *testing.B) {
	s := Solve(benchGraph(b))
	target := aid("svc-090", ecosys.PlatformWeb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Plan(target, 0); err != nil && !errors.Is(err, ErrNoPlan) {
			b.Fatal(err)
		}
	}
}

// benchGraph builds a 100-node synthetic layered graph.
func benchGraph(tb testing.TB) *tdg.Graph {
	tb.Helper()
	web := ecosys.PlatformWeb
	var nodes []tdg.Node
	for i := 0; i < 100; i++ {
		name := "svc-0" + string(rune('0'+i/10%10)) + string(rune('0'+i%10))
		n := tdg.Node{ID: aid(name, web)}
		switch i % 4 {
		case 0: // fringe exposing identity info
			n.Paths = []ecosys.AuthPath{{ID: "r", Purpose: ecosys.PurposeReset,
				Factors: []ecosys.FactorKind{ecosys.FactorCellphone, ecosys.FactorSMSCode}}}
			n.Exposes = ecosys.NewInfoSet(ecosys.InfoRealName, ecosys.InfoCitizenID)
		case 1:
			n.Paths = []ecosys.AuthPath{{ID: "r", Purpose: ecosys.PurposeReset,
				Factors: []ecosys.FactorKind{ecosys.FactorSMSCode, ecosys.FactorCitizenID}}}
			n.Exposes = ecosys.NewInfoSet(ecosys.InfoBankcard)
		case 2:
			n.Paths = []ecosys.AuthPath{{ID: "r", Purpose: ecosys.PurposeReset,
				Factors: []ecosys.FactorKind{ecosys.FactorRealName, ecosys.FactorBankcard}}}
			n.Exposes = ecosys.NewInfoSet(ecosys.InfoAddress)
		default:
			n.Paths = []ecosys.AuthPath{{ID: "s", Purpose: ecosys.PurposeSignIn,
				Factors: []ecosys.FactorKind{ecosys.FactorU2F}}}
		}
		nodes = append(nodes, n)
	}
	g, err := tdg.Build(nodes, ecosys.BaselineAttacker())
	if err != nil {
		tb.Fatal(err)
	}
	return g
}
