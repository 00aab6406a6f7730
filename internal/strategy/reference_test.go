package strategy

import (
	"fmt"
	"math"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/tdg"
)

// Unreachable is the depth of an account no chain compromises.
const Unreachable = math.MaxInt32

// AccountDepths runs the compiled closure with every account enrolled
// under g's profile and returns each account's depth (1 = attacker
// profile alone, Unreachable = never).
func AccountDepths(g *tdg.Graph) map[ecosys.AccountID]int {
	c := CompileClosure(g)
	r := c.NewRun()
	for a := range r.depth {
		r.Enroll(int32(a))
	}
	r.Solve(c.Baseline())
	out := make(map[ecosys.AccountID]int, g.Len())
	for a, id := range g.Nodes() {
		out[id] = Unreachable
		if d := r.Depth(int32(a)); d != 0 {
			out[id] = int(d)
		}
	}
	return out
}

// The map-keyed fixpoint below is the reference the compiled closure
// is checked against: it walks the graph's own nodes, paths and
// supplier queries with no compile step, no dense indices and no
// dropped paths.

// needKey indexes supplier lists by (target account, missing factor).
type needKey struct {
	id ecosys.AccountID
	f  ecosys.FactorKind
}

// depthAnalysis carries the converged reference state.
type depthAnalysis struct {
	g         *tdg.Graph
	apFactors ecosys.FactorSet
	suppliers map[needKey][]ecosys.AccountID
	depth     map[ecosys.AccountID]int
}

func newDepthAnalysis(g *tdg.Graph) *depthAnalysis {
	ap := g.Profile()
	a := &depthAnalysis{
		g:         g,
		apFactors: ap.Factors(),
		suppliers: make(map[needKey][]ecosys.AccountID),
		depth:     make(map[ecosys.AccountID]int, g.Len()),
	}
	for _, id := range g.Nodes() {
		a.depth[id] = Unreachable
		node, _ := g.Node(id)
		for _, p := range takeoverOf(node) {
			for _, f := range p.Factors {
				if a.apFactors.Has(f) {
					continue
				}
				k := needKey{id, f}
				if _, done := a.suppliers[k]; !done {
					a.suppliers[k] = g.Suppliers(id, f)
				}
			}
		}
	}
	a.converge()
	return a
}

// converge runs the monotone fixpoint: a path's depth is 1 + the max
// over its missing factors of the min depth of any supplier; an
// account's depth is the min over its takeover paths. Depths only
// decrease from Unreachable, so the iteration terminates in at most
// |nodes| sweeps.
func (a *depthAnalysis) converge() {
	for changed := true; changed; {
		changed = false
		for _, id := range a.g.Nodes() {
			node, _ := a.g.Node(id)
			best := a.depth[id]
			for _, p := range takeoverOf(node) {
				if d := a.pathDepth(id, p); d < best {
					best = d
				}
			}
			if best < a.depth[id] {
				a.depth[id] = best
				changed = true
			}
		}
	}
}

// pathDepth evaluates one path under the current estimates.
func (a *depthAnalysis) pathDepth(id ecosys.AccountID, p ecosys.AuthPath) int {
	worst := 0
	for _, f := range p.Factors {
		if a.apFactors.Has(f) {
			continue
		}
		bestProv := Unreachable
		for _, prov := range a.suppliers[needKey{id, f}] {
			if d := a.depth[prov]; d < bestProv {
				bestProv = d
			}
		}
		if bestProv == Unreachable {
			return Unreachable
		}
		if bestProv > worst {
			worst = bestProv
		}
	}
	return worst + 1
}

func takeoverOf(node *tdg.Node) []ecosys.AuthPath {
	var out []ecosys.AuthPath
	for _, p := range node.Paths {
		if p.Purpose == ecosys.PurposeSignIn || p.Purpose == ecosys.PurposeReset {
			out = append(out, p)
		}
	}
	return out
}

// ReferenceDepths is the reference AccountDepths.
func ReferenceDepths(g *tdg.Graph) map[ecosys.AccountID]int {
	return newDepthAnalysis(g).depth
}

// ReferencePathLayers is the reference PathLayers.
func ReferencePathLayers(g *tdg.Graph) DepthStats {
	a := newDepthAnalysis(g)
	st := DepthStats{Total: g.Len()}
	for _, id := range g.Nodes() {
		node, _ := g.Node(id)
		var direct, oneMiddle, twoFull, twoCouple bool
		for _, p := range takeoverOf(node) {
			switch a.pathDepth(id, p) {
			case 1:
				direct = true
			case 2:
				oneMiddle = true
			case 3:
				if g.HasStrongFor(id, p.ID) {
					twoFull = true
				} else {
					twoCouple = true
				}
			}
		}
		if direct {
			st.Direct++
		}
		if oneMiddle {
			st.OneMiddle++
		}
		if twoFull {
			st.TwoLayerFull++
		}
		if twoCouple {
			st.TwoLayerCouple++
		}
		if a.depth[id] == Unreachable {
			st.Uncompromisable++
		}
	}
	return st
}

// referenceForwardClosure is the reference ForwardClosure: rounds over
// the graph's own nodes, with the harvested information, capabilities
// and controlled services in maps, and no compiled closure.
func referenceForwardClosure(g *tdg.Graph, initial []ecosys.AccountID) (*ForwardResult, error) {
	res := &ForwardResult{
		Compromised: make(map[ecosys.AccountID]Compromise),
		FinalInfo:   make(ecosys.InfoSet),
	}
	ap := g.Profile()
	for f := range ap.KnownInfo {
		res.FinalInfo.Add(f)
	}

	controlled := make(map[string]bool) // service names under control
	for _, id := range initial {
		node, ok := g.Node(id)
		if !ok {
			return nil, fmt.Errorf("strategy: initial account %s not in graph", id)
		}
		res.Compromised[id] = Compromise{Round: 0}
		controlled[id.Service] = true
		for f := range node.Exposes {
			res.FinalInfo.Add(f)
		}
	}

	for round := 1; ; round++ {
		available := ap.Capabilities.Union(res.FinalInfo.Factors())
		var fell []ecosys.AccountID
		newInfo := make(ecosys.InfoSet)
		for _, id := range g.Nodes() {
			if _, done := res.Compromised[id]; done {
				continue
			}
			node, _ := g.Node(id)
			pathID, usedCouple, ok := referenceSatisfiablePath(node, ap.Capabilities, available, controlled)
			if !ok {
				continue
			}
			res.Compromised[id] = Compromise{Round: round, PathID: pathID, UsedCouple: usedCouple}
			fell = append(fell, id)
			for f := range node.Exposes {
				newInfo.Add(f)
			}
		}
		if len(fell) == 0 {
			break
		}
		res.Rounds = append(res.Rounds, fell)
		for _, id := range fell {
			controlled[id.Service] = true
		}
		for f := range newInfo {
			res.FinalInfo.Add(f)
		}
	}

	for _, id := range g.Nodes() {
		if _, done := res.Compromised[id]; !done {
			res.Survivors = append(res.Survivors, id)
		}
	}
	return res, nil
}

// satisfiablePath finds the first takeover path of node coverable by
// the available factors and controlled services. usedCouple reports
// whether more than one harvested (non-capability) factor was needed —
// the measurement-granularity stand-in for the paper's half-capacity-
// parent notion.
func referenceSatisfiablePath(node *tdg.Node, capabilities, available ecosys.FactorSet, controlled map[string]bool) (pathID string, usedCouple bool, ok bool) {
	for _, p := range node.Paths {
		if p.Purpose != ecosys.PurposeSignIn && p.Purpose != ecosys.PurposeReset {
			continue
		}
		covered := true
		extra := 0
		for _, f := range p.Factors {
			switch {
			case available.Has(f):
				if !capabilities.Has(f) {
					extra++
				}
			case f == ecosys.FactorLinkedAccount:
				bound := false
				for _, b := range node.BoundTo {
					if controlled[b] {
						bound = true
						break
					}
				}
				if !bound {
					covered = false
				} else {
					extra++
				}
			case f == ecosys.FactorEmailCode || f == ecosys.FactorEmailLink:
				if node.EmailProvider == "" || !controlled[node.EmailProvider] {
					covered = false
				} else {
					extra++
				}
			default:
				covered = false
			}
			if !covered {
				break
			}
		}
		if covered {
			return p.ID, extra > 1, true
		}
	}
	return "", false, false
}
