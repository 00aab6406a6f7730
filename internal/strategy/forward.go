// Package strategy implements ActFort's Strategy Output stage
// (§III.E): the forward closure that answers "given what the attacker
// holds, which accounts fall?" (Online Account Attacked Set → Initial
// Attack Database → Potential Account Victims) and the backward search
// that answers "how do I reach this specific target from cellphone +
// SMS code?".
//
// Both run the compiled chain-reaction closure (Closure), whose one
// engine, Lanes, evaluates up to 256 victims per pass, one victim per
// bit lane; a single victim is a block of one. The forward closure,
// the paper's dependency depths and the campaign read which accounts
// fall at which depth. The backward search reads a witness of the same
// layers: the path the target fell by and, per need of that path, one
// supplier fallen earlier, down to the fringe roots. The scalar
// closure, the map-keyed fixpoint over the graph and the couple-file
// searcher the witness read replaced live on in the tests as
// references.
package strategy

import (
	"fmt"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/tdg"
)

// Compromise describes how one account fell during a forward closure.
type Compromise struct {
	// Round is the closure iteration (1 = directly with the attacker
	// profile / initial set).
	Round int
	// PathID is the authentication path used.
	PathID string
	// UsedCouple reports that no single previously compromised
	// account covered the path alone — the step needed jointly
	// contributed factors (half-capacity parents).
	UsedCouple bool
}

// ForwardResult is the outcome of a closure run.
type ForwardResult struct {
	// Compromised maps every fallen account to how it fell. Accounts
	// in the initial set are recorded with Round 0.
	Compromised map[ecosys.AccountID]Compromise
	// Rounds lists accounts newly fallen per iteration (1-based;
	// Rounds[0] is round 1).
	Rounds [][]ecosys.AccountID
	// Survivors are accounts that never fell.
	Survivors []ecosys.AccountID
	// FinalInfo is the Initial Attack Database at fixpoint: every
	// personal-information field the attacker has harvested.
	FinalInfo ecosys.InfoSet
}

// VictimCount returns the number of fallen accounts, excluding the
// initial set.
func (r *ForwardResult) VictimCount() int {
	n := 0
	for _, c := range r.Compromised {
		if c.Round > 0 {
			n++
		}
	}
	return n
}

// ForwardClosure runs the PAV computation: starting from the graph's
// attacker profile plus an optional initially compromised set (OAAS),
// it takes over, round by round, every account one of whose takeover
// paths the profile and the accounts fallen so far cover, harvesting
// their exposed information into the IAD, until nothing more falls.
// The rounds are the compiled closure's layers, run as a block of one
// lane, with the initial accounts' supplies in layer 0.
func ForwardClosure(g *tdg.Graph, initial []ecosys.AccountID) (*ForwardResult, error) {
	res := &ForwardResult{
		Compromised: make(map[ecosys.AccountID]Compromise),
		FinalInfo:   make(ecosys.InfoSet),
	}
	ap := g.Profile()
	for f := range ap.KnownInfo {
		res.FinalInfo.Add(f)
	}
	for _, id := range initial {
		if _, ok := g.Node(id); !ok {
			return nil, fmt.Errorf("strategy: initial account %s not in graph", id)
		}
		res.Compromised[id] = Compromise{Round: 0}
	}
	ids := g.Nodes()
	c := CompileClosure(g)
	one := &Word{1} // a block of one, in lane 0
	l := c.NewLanes()
	l.Know(c.baseline, one)
	for a, id := range ids {
		if _, done := res.Compromised[id]; done {
			l.Give(int32(a), one)
		} else {
			l.Enroll(int32(a), one)
		}
	}
	l.Solve()
	depth := make([]int32, len(ids))
	for _, f := range l.Falls() {
		depth[f.Account] = f.Depth
	}
	for a, id := range ids {
		node, _ := g.Node(id)
		if _, done := res.Compromised[id]; !done {
			d := depth[a]
			if d == 0 {
				res.Survivors = append(res.Survivors, id)
				continue
			}
			if int(d) > len(res.Rounds) {
				res.Rounds = append(res.Rounds, make([][]ecosys.AccountID, int(d)-len(res.Rounds))...)
			}
			res.Rounds[d-1] = append(res.Rounds[d-1], id)
			p := c.pathStart[a]
			for l.pathDepth(p, 0) != d {
				p++ // no path is covered before the layer the account fell in
			}
			res.Compromised[id] = Compromise{Round: int(d), PathID: c.pathID[p],
				UsedCouple: harvested(node, c.pathID[p], ap.Capabilities) > 1}
		}
		for f := range node.Exposes {
			res.FinalInfo.Add(f)
		}
	}
	return res, nil
}

// harvested counts the factors of node's path pathID beyond the
// attacker's capabilities. More than one marks the fall UsedCouple: the
// measurement-granularity stand-in for the paper's half-capacity-parent
// notion.
func harvested(node *tdg.Node, pathID string, capabilities ecosys.FactorSet) int {
	n := 0
	for _, p := range node.Paths {
		if p.ID == pathID {
			for _, f := range p.Factors {
				if !capabilities.Has(f) {
					n++
				}
			}
			return n
		}
	}
	return n
}

// LayerStats aggregates a ForwardResult into the paper's §IV.B.1
// dependency categories. Percentages overlap by construction (the
// paper: "the overall percentage can not be summed up to 100").
type LayerStats struct {
	Total int
	// Direct is |round 1|: compromised with phone + SMS code alone.
	Direct int
	// OneMiddle is |round 2|: one layer of middle accounts.
	OneMiddle int
	// TwoLayerFull is |round >= 3| without couple use.
	TwoLayerFull int
	// WithCouples counts accounts whose fall needed jointly
	// contributed factors at any depth.
	WithCouples int
	// Uncompromised never fell.
	Uncompromised int
}

// Pct returns 100*n/total, 0 for an empty graph.
func (s LayerStats) Pct(n int) float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(s.Total)
}

// Layers computes LayerStats from a closure that started with an empty
// initial set.
func Layers(res *ForwardResult, total int) LayerStats {
	st := LayerStats{Total: total}
	for _, c := range res.Compromised {
		switch {
		case c.Round == 1:
			st.Direct++
		case c.Round == 2:
			st.OneMiddle++
		case c.Round >= 3 && !c.UsedCouple:
			st.TwoLayerFull++
		}
		if c.UsedCouple {
			st.WithCouples++
		}
	}
	st.Uncompromised = len(res.Survivors)
	return st
}
