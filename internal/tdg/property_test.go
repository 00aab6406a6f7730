package tdg

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/actfort/actfort/internal/ecosys"
)

// randomNodes builds a random node set for invariant checking.
func randomNodes(seed int64, size int) []Node {
	r := rand.New(rand.NewSource(seed))
	if size < 2 {
		size = 2
	}
	factorPool := []ecosys.FactorKind{
		ecosys.FactorSMSCode, ecosys.FactorCellphone, ecosys.FactorPassword,
		ecosys.FactorRealName, ecosys.FactorCitizenID, ecosys.FactorBankcard,
		ecosys.FactorAddress, ecosys.FactorUserID, ecosys.FactorBiometric,
	}
	fieldPool := []ecosys.InfoField{
		ecosys.InfoRealName, ecosys.InfoCitizenID, ecosys.InfoBankcard,
		ecosys.InfoAddress, ecosys.InfoUserID, ecosys.InfoEmailAddress,
	}
	nodes := make([]Node, 0, size)
	for i := 0; i < size; i++ {
		n := Node{
			ID:      ecosys.AccountID{Service: fmt.Sprintf("q%03d", i), Platform: ecosys.PlatformWeb},
			Exposes: make(ecosys.InfoSet),
		}
		for p := 0; p < 1+r.Intn(2); p++ {
			nf := 1 + r.Intn(3)
			factors := make([]ecosys.FactorKind, 0, nf)
			for f := 0; f < nf; f++ {
				factors = append(factors, factorPool[r.Intn(len(factorPool))])
			}
			n.Paths = append(n.Paths, ecosys.AuthPath{
				ID: fmt.Sprintf("p%d", p), Purpose: ecosys.PurposeReset, Factors: factors,
			})
		}
		for e := 0; e < r.Intn(4); e++ {
			n.Exposes.Add(fieldPool[r.Intn(len(fieldPool))])
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// Property: every strong edge's source really covers every non-AP
// factor of the referenced path (edge soundness).
func TestPropertyStrongEdgesSound(t *testing.T) {
	ap := ecosys.BaselineAttacker()
	apFactors := ap.Factors()
	f := func(seed int64, sz uint8) bool {
		nodes := randomNodes(seed, int(sz%20)+2)
		g, err := Build(nodes, ap)
		if err != nil {
			return false
		}
		for _, e := range g.StrongEdges() {
			from, _ := g.Node(e.From)
			to, _ := g.Node(e.To)
			var path *ecosys.AuthPath
			for i := range to.Paths {
				if to.Paths[i].ID == e.PathID {
					path = &to.Paths[i]
					break
				}
			}
			if path == nil {
				return false
			}
			supplied := from.Exposes.Factors()
			for _, fk := range path.Factors {
				if apFactors.Has(fk) {
					continue
				}
				if !supplied.Has(fk) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: couples are minimal (no member removable) and jointly
// sufficient for their path.
func TestPropertyCouplesMinimalAndSufficient(t *testing.T) {
	ap := ecosys.BaselineAttacker()
	apFactors := ap.Factors()
	f := func(seed int64, sz uint8) bool {
		nodes := randomNodes(seed, int(sz%20)+2)
		g, err := Build(nodes, ap, WithMaxCoupleSize(3))
		if err != nil {
			return false
		}
		for _, c := range g.Couples(ecosys.AccountID{}) {
			to, _ := g.Node(c.Target)
			var path *ecosys.AuthPath
			for i := range to.Paths {
				if to.Paths[i].ID == c.PathID {
					path = &to.Paths[i]
					break
				}
			}
			if path == nil || len(c.Members) < 2 {
				return false
			}
			required := make([]ecosys.FactorKind, 0, len(path.Factors))
			for _, fk := range path.Factors {
				if !apFactors.Has(fk) {
					required = append(required, fk)
				}
			}
			covers := func(members []ecosys.AccountID) bool {
				have := make(ecosys.FactorSet)
				for _, m := range members {
					n, _ := g.Node(m)
					for fk := range n.Exposes.Factors() {
						have[fk] = true
					}
				}
				for _, fk := range required {
					if !have.Has(fk) {
						return false
					}
				}
				return true
			}
			if !covers(c.Members) {
				return false // not sufficient
			}
			for skip := range c.Members {
				reduced := make([]ecosys.AccountID, 0, len(c.Members)-1)
				for j, m := range c.Members {
					if j != skip {
						reduced = append(reduced, m)
					}
				}
				if covers(reduced) {
					return false // not minimal
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: adding exposure to a node never removes edges and never
// turns a fringe node internal (monotonicity of the graph in PIA).
func TestPropertyEdgesMonotoneInExposure(t *testing.T) {
	ap := ecosys.BaselineAttacker()
	f := func(seed int64, sz uint8) bool {
		nodes := randomNodes(seed, int(sz%16)+2)
		g1, err := Build(nodes, ap)
		if err != nil {
			return false
		}
		// Enrich every node's exposure.
		enriched := make([]Node, len(nodes))
		copy(enriched, nodes)
		for i := range enriched {
			enriched[i].Exposes = enriched[i].Exposes.Clone()
			enriched[i].Exposes.Add(ecosys.InfoCitizenID)
		}
		g2, err := Build(enriched, ap)
		if err != nil {
			return false
		}
		// Every strong edge of g1 must survive in g2.
		type key struct{ from, to, path string }
		have := make(map[key]bool)
		for _, e := range g2.StrongEdges() {
			have[key{e.From.String(), e.To.String(), e.PathID}] = true
		}
		for _, e := range g1.StrongEdges() {
			if !have[key{e.From.String(), e.To.String(), e.PathID}] {
				return false
			}
		}
		// Fringe membership is exposure-independent.
		for _, id := range g1.Nodes() {
			if g1.IsFringe(id) != g2.IsFringe(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: AppendSuppliers agrees with edge construction — every strong
// edge's source appears as a supplier of each factor it provides.
func TestPropertySuppliersConsistent(t *testing.T) {
	ap := ecosys.BaselineAttacker()
	f := func(seed int64, sz uint8) bool {
		nodes := randomNodes(seed, int(sz%16)+2)
		g, err := Build(nodes, ap)
		if err != nil {
			return false
		}
		ids := g.Nodes()
		for _, e := range g.StrongEdges() {
			for _, fk := range e.Provides {
				found := false
				for _, s := range g.AppendSuppliers(nil, e.To, fk) {
					if ids[s] == e.From {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
