// Package strategy implements ActFort's Strategy Output stage
// (§III.E): the forward closure that answers "given what the attacker
// holds, which accounts fall?" (Online Account Attacked Set → Initial
// Attack Database → Potential Account Victims) and the backward search
// that answers "how do I reach this specific target from cellphone +
// SMS code?" (full-capacity parents and merged couple nodes, walked
// down to fringe roots).
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
// repeatedly takes over every account whose factors are now covered,
// harvesting its exposed information into the IAD, until fixpoint.
func ForwardClosure(g *tdg.Graph, initial []ecosys.AccountID) (*ForwardResult, error) {
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
			pathID, usedCouple, ok := satisfiablePath(node, ap.Capabilities, available, controlled)
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
func satisfiablePath(node *tdg.Node, capabilities, available ecosys.FactorSet, controlled map[string]bool) (pathID string, usedCouple bool, ok bool) {
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
