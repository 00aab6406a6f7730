package strategy

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/tdg"
)

// randomNodes generates a small random ecosystem: each account gets
// 1–3 takeover paths drawn from realistic factor combinations and a
// random exposure set. It exercises the analysis invariants far from
// the calibrated catalog's shape.
func randomNodes(seed int64, size int) []tdg.Node {
	r := rand.New(rand.NewSource(seed))
	if size < 2 {
		size = 2
	}
	factorPool := []ecosys.FactorKind{
		ecosys.FactorSMSCode, ecosys.FactorCellphone, ecosys.FactorPassword,
		ecosys.FactorRealName, ecosys.FactorCitizenID, ecosys.FactorBankcard,
		ecosys.FactorAddress, ecosys.FactorUserID, ecosys.FactorBiometric,
		ecosys.FactorEmailCode,
	}
	fieldPool := []ecosys.InfoField{
		ecosys.InfoRealName, ecosys.InfoCitizenID, ecosys.InfoBankcard,
		ecosys.InfoAddress, ecosys.InfoUserID, ecosys.InfoEmailAddress,
		ecosys.InfoOrderHistory,
	}
	nodes := make([]tdg.Node, 0, size)
	for i := 0; i < size; i++ {
		n := tdg.Node{
			ID:      ecosys.AccountID{Service: fmt.Sprintf("r%03d", i), Platform: ecosys.PlatformWeb},
			Exposes: make(ecosys.InfoSet),
		}
		nPaths := 1 + r.Intn(3)
		for p := 0; p < nPaths; p++ {
			nf := 1 + r.Intn(3)
			factors := make([]ecosys.FactorKind, 0, nf)
			for f := 0; f < nf; f++ {
				factors = append(factors, factorPool[r.Intn(len(factorPool))])
			}
			purpose := ecosys.PurposeSignIn
			if r.Intn(2) == 0 {
				purpose = ecosys.PurposeReset
			}
			n.Paths = append(n.Paths, ecosys.AuthPath{
				ID: fmt.Sprintf("p%d", p), Purpose: purpose, Factors: factors,
			})
		}
		nExpose := r.Intn(4)
		for e := 0; e < nExpose; e++ {
			n.Exposes.Add(fieldPool[r.Intn(len(fieldPool))])
		}
		// Occasional email binding to an earlier node's service.
		if i > 0 && r.Intn(5) == 0 {
			n.EmailProvider = fmt.Sprintf("r%03d", r.Intn(i))
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// randomGraph builds randomNodes under the baseline attacker, at the
// default couple size: plans are witnesses of the closure, which no
// couple bound limits.
func randomGraph(seed int64, size int) (*tdg.Graph, error) {
	return tdg.Build(randomNodes(seed, size), ecosys.BaselineAttacker())
}

// Property: the closure compromises exactly the accounts the backward
// search can plan for, on arbitrary random ecosystems.
func TestPropertyClosurePlanAgreement(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		g, err := randomGraph(seed, int(sz%16)+2)
		if err != nil {
			return false
		}
		s := Solve(g)
		res := s.Forward()
		for _, id := range g.Nodes() {
			// Depth bound generous enough for any chain in the graph.
			_, planErr := s.Plan(id, g.Len()+1)
			_, fell := res.Compromised[id]
			if fell != (planErr == nil) {
				t.Logf("seed=%d sz=%d node=%s fell=%v planErr=%v", seed, sz, id, fell, planErr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestClosurePlanAgreementRegression pins a random ecosystem on which
// a budget-capped backward search once gave up on r015/web although the
// closure compromises it.
func TestClosurePlanAgreementRegression(t *testing.T) {
	g, err := randomGraph(-3164003334501215520, int(byte(0x1e)%16)+2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ForwardClosure(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := ecosys.AccountID{Service: "r015", Platform: ecosys.PlatformWeb}
	if _, fell := res.Compromised[target]; !fell {
		t.Fatalf("closure no longer compromises %s", target)
	}
	if _, err := Solve(g).Plan(target, g.Len()+1); err != nil {
		t.Fatalf("Plan(%s): %v", target, err)
	}
}

// Property: AccountDepths equals the closure round for every
// compromised account and Unreachable for every survivor.
func TestPropertyDepthsMatchClosureRounds(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		g, err := randomGraph(seed, int(sz%16)+2)
		if err != nil {
			return false
		}
		res, err := ForwardClosure(g, nil)
		if err != nil {
			return false
		}
		depths := Solve(g).AccountDepths()
		for _, id := range g.Nodes() {
			c, fell := res.Compromised[id]
			if fell && depths[id] != c.Round {
				return false
			}
			if !fell && depths[id] != Unreachable {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: fringe nodes are exactly the depth-1 accounts.
func TestPropertyFringeIsDepthOne(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		g, err := randomGraph(seed, int(sz%32)+2)
		if err != nil {
			return false
		}
		depths := Solve(g).AccountDepths()
		for _, id := range g.Nodes() {
			if g.IsFringe(id) != (depths[id] == 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: plans are witnesses of the closure. Each is executable in
// order, ends at its target, takes no account over twice and is as
// deep as the closure; ErrNoPlan comes exactly when the closure leaves
// the account standing or deeper than the bound.
func TestPropertyPlansWellFormed(t *testing.T) {
	f := func(seed int64, sz, bound uint8) bool {
		g, err := randomGraph(seed, int(sz%16)+2)
		if err != nil {
			return false
		}
		maxDepth := 1 + int(bound%6)
		s := Solve(g)
		depths := s.AccountDepths()
		for _, id := range g.Nodes() {
			plan, err := s.Plan(id, maxDepth)
			if d := depths[id]; d == Unreachable || d > maxDepth {
				if !errors.Is(err, ErrNoPlan) {
					t.Logf("seed=%d %s: depth %d, bound %d, err %v", seed, id, d, maxDepth, err)
					return false
				}
				continue
			}
			if err != nil {
				t.Logf("seed=%d %s: %v", seed, id, err)
				return false
			}
			if err := CheckPlan(g, plan); err != nil || plan.Depth() != depths[id] {
				t.Logf("seed=%d %s: %v, depth %d, closure %d", seed, id, err, plan.Depth(), depths[id])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPlanStepsAgainstReference compares plans with the reference
// searcher's on random ecosystems with triple couples, which cover the
// widest random path (3 factors). Every account the searcher plans for
// has a plan at most as deep. Neither search is step-minimal, so the
// plans with more and with fewer steps than the searcher's are counted
// and logged, not bounded.
func TestPlanStepsAgainstReference(t *testing.T) {
	var plans, longer, shorter int
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, err := tdg.Build(randomNodes(seed, 2+r.Intn(40)), ecosys.BaselineAttacker(), tdg.WithMaxCoupleSize(3))
		if err != nil {
			t.Fatal(err)
		}
		ref := ReferencePlans(g, g.Len()+1, 1)
		s := Solve(g)
		for _, id := range g.Nodes() {
			plan, err := s.Plan(id, g.Len()+1)
			if err != nil {
				if len(ref[id]) > 0 {
					t.Errorf("seed %d %s: the searcher plans %s, Plan: %v", seed, id, ref[id][0], err)
				}
				continue
			}
			if err := CheckPlan(g, plan); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
			plans++
			if len(ref[id]) == 0 {
				continue
			}
			if plan.Depth() > ref[id][0].Depth() {
				t.Errorf("seed %d %s: plan %s is deeper than the searcher's %s", seed, id, plan, ref[id][0])
			}
			switch n, m := len(plan.Steps), len(ref[id][0].Steps); {
			case n > m:
				longer++
			case n < m:
				shorter++
			}
		}
	}
	t.Logf("%d plans: %d with more steps than the searcher's, %d with fewer", plans, longer, shorter)
}

// Property: growing the attacker profile never shrinks the victim set
// (closure monotonicity in AP).
func TestPropertyClosureMonotoneInProfile(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		size := int(sz%24) + 2
		r := rand.New(rand.NewSource(seed))
		_ = r
		g, err := randomGraph(seed, size)
		if err != nil {
			return false
		}
		base, err := ForwardClosure(g, nil)
		if err != nil {
			return false
		}
		// Rebuild the same nodes with a richer profile.
		var nodes []tdg.Node
		for _, id := range g.Nodes() {
			n, _ := g.Node(id)
			nodes = append(nodes, *n)
		}
		richer := ecosys.BaselineAttacker()
		richer.KnownInfo.Add(ecosys.InfoCitizenID)
		g2, err := tdg.Build(nodes, richer)
		if err != nil {
			return false
		}
		more, err := ForwardClosure(g2, nil)
		if err != nil {
			return false
		}
		if more.VictimCount() < base.VictimCount() {
			return false
		}
		for id := range base.Compromised {
			if _, still := more.Compromised[id]; !still {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// CheckPlan returns why plan is not an executable attack on its
// target, or nil: its last step takes the target over, no account
// appears twice, every parent precedes its step, and every factor of
// each step's takeover path is met by the graph's profile or by an
// earlier step's account, as g.AppendSuppliers answers.
func CheckPlan(g *tdg.Graph, plan *Plan) error {
	if n := len(plan.Steps); n == 0 || plan.Steps[n-1].Account != plan.Target {
		return fmt.Errorf("plan %s does not end at %s", plan, plan.Target)
	}
	profile := g.Profile().Factors()
	ids := g.Nodes()
	done := make(map[ecosys.AccountID]bool, len(plan.Steps))
	for _, s := range plan.Steps {
		if done[s.Account] {
			return fmt.Errorf("plan %s takes %s over twice", plan, s.Account)
		}
		for _, parent := range s.Parents {
			if !done[parent] {
				return fmt.Errorf("plan %s: %s needs %s, not taken over before it", plan, s.Account, parent)
			}
		}
		node, _ := g.Node(s.Account)
		i := slices.IndexFunc(takeoverOf(node), func(p ecosys.AuthPath) bool { return p.ID == s.PathID })
		if i < 0 {
			return fmt.Errorf("plan %s: %s has no takeover path %q", plan, s.Account, s.PathID)
		}
		for _, f := range takeoverOf(node)[i].Factors {
			if !profile.Has(f) && !slices.ContainsFunc(g.AppendSuppliers(nil, s.Account, f), func(i int32) bool { return done[ids[i]] }) {
				return fmt.Errorf("plan %s: nothing before %s supplies %s", plan, s.Account, f)
			}
		}
		done[s.Account] = true
	}
	return nil
}
