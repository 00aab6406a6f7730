package strategy

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/tdg"
)

// randomGraph generates a small random ecosystem: each account gets
// 1–3 takeover paths drawn from realistic factor combinations and a
// random exposure set. It exercises the analysis invariants far from
// the calibrated catalog's shape.
func randomGraph(seed int64, size int) (*tdg.Graph, error) {
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
	// Couple size 3 matches the widest random path (3 factors), so the
	// backward search sees every provider combination the closure can
	// exploit. With the default pair-only enumeration the closure is
	// strictly more complete (see TestTripleCouples in tdg) and the
	// agreement property below would not hold.
	return tdg.Build(nodes, ecosys.BaselineAttacker(), tdg.WithMaxCoupleSize(3))
}

// Property: the closure compromises exactly the accounts the backward
// search can plan for, on arbitrary random ecosystems.
func TestPropertyClosurePlanAgreement(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		g, err := randomGraph(seed, int(sz%16)+2)
		if err != nil {
			return false
		}
		res, err := ForwardClosure(g, nil)
		if err != nil {
			return false
		}
		for _, id := range g.Nodes() {
			// Depth bound generous enough for any chain in the graph.
			_, planErr := FindPlan(g, id, g.Len()+1)
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
		depths := AccountDepths(g)
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
		depths := AccountDepths(g)
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

// Property: plans are well-formed — every parent precedes its child
// and the last step is the target.
func TestPropertyPlansWellFormed(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		g, err := randomGraph(seed, int(sz%16)+2)
		if err != nil {
			return false
		}
		for _, id := range g.Nodes() {
			plan, err := FindPlan(g, id, 5)
			if err != nil {
				continue
			}
			if plan.Steps[len(plan.Steps)-1].Account != id {
				return false
			}
			pos := make(map[ecosys.AccountID]int)
			for i, s := range plan.Steps {
				if _, dup := pos[s.Account]; dup {
					return false // an account compromised twice
				}
				pos[s.Account] = i
				for _, parent := range s.Parents {
					pi, ok := pos[parent]
					if !ok || pi >= i {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
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
