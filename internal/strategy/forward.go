// Package strategy implements ActFort's Strategy Output stage
// (§III.E): the forward closure that answers "given what the attacker
// holds, which accounts fall?" (Online Account Attacked Set → Initial
// Attack Database → Potential Account Victims) and the backward search
// that answers "how do I reach this specific target from cellphone +
// SMS code?".
//
// Both run the compiled chain-reaction closure (Closure), whose one
// engine, Lanes, evaluates up to 256 victims per pass, one victim per
// bit lane; a single victim is a block of one. Solve solves a graph
// once, as a block of one with every account enrolled, and its
// Solution serves the paper's dependency depths, the forward closure
// and the backward search; the campaign runs its own blocks. The
// forward closure and the depths read which accounts fall at which
// depth. The backward search reads a witness of the same layers: the
// path the target fell by and, per need of that path, one supplier
// fallen earlier, down to the fringe roots. The scalar
// closure, the map-keyed fixpoint over the graph and the couple-file
// searcher the witness read replaced live on in the tests as
// references.
package strategy

import (
	"fmt"
	"slices"

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
// The rounds are the compiled closure's layers, solved as Solve solves
// them, with the initial accounts' supplies in layer 0. From no
// initial account it is Solve(g).Forward().
func ForwardClosure(g *tdg.Graph, initial []ecosys.AccountID) (*ForwardResult, error) {
	var given []bool
	if len(initial) > 0 {
		ids := g.Nodes()
		given = make([]bool, len(ids))
		for _, id := range initial {
			a := slices.Index(ids, id)
			if a < 0 {
				return nil, fmt.Errorf("strategy: initial account %s not in graph", id)
			}
			given[a] = true
		}
	}
	return solve(g, given).Forward(), nil
}

// Forward returns the solved forward closure: each fallen account's
// round and the first of its paths covered in that round, the
// survivors, and the profile's information plus everything the fallen
// and initial accounts expose.
func (s *Solution) Forward() *ForwardResult {
	res := &ForwardResult{
		Compromised: make(map[ecosys.AccountID]Compromise),
		FinalInfo:   make(ecosys.InfoSet),
	}
	for f := range s.g.Profile().KnownInfo {
		res.FinalInfo.Add(f)
	}
	for a, id := range s.ids {
		d := s.depth[a]
		switch {
		case s.given != nil && s.given[a]:
			res.Compromised[id] = Compromise{}
		case d == 0:
			res.Survivors = append(res.Survivors, id)
			continue
		default:
			if int(d) > len(res.Rounds) {
				res.Rounds = append(res.Rounds, make([][]ecosys.AccountID, int(d)-len(res.Rounds))...)
			}
			res.Rounds[d-1] = append(res.Rounds[d-1], id)
			p := s.c.pathStart[a]
			for s.l.pathDepth(p, 0) != d {
				p++ // no path is covered before the layer the account fell in
			}
			res.Compromised[id] = Compromise{Round: int(d), PathID: s.c.pathID[p]}
		}
		node, _ := s.g.Node(id)
		for f := range node.Exposes {
			res.FinalInfo.Add(f)
		}
	}
	return res
}
