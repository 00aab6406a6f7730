package strategy

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/actfort/actfort/internal/ecosys"
)

// PlanStep is one compromise in an attack plan: take over Account via
// PathID after the Parents (earlier in the plan) have fallen. Fringe
// roots have no parents — they fall to phone + SMS code alone.
type PlanStep struct {
	Account ecosys.AccountID
	PathID  string
	Parents []ecosys.AccountID
}

// Plan is an ordered Chain Reaction Attack: executing the steps in
// sequence compromises Target. It is the "account chain" §III.E's
// backward search returns.
type Plan struct {
	Target ecosys.AccountID
	Steps  []PlanStep
}

// Depth returns the number of compromise layers (fringe roots are
// layer 1).
func (p *Plan) Depth() int {
	depth := make(map[ecosys.AccountID]int, len(p.Steps))
	maxD := 0
	for _, s := range p.Steps {
		d := 1
		for _, parent := range s.Parents {
			if pd, ok := depth[parent]; ok && pd+1 > d {
				d = pd + 1
			}
		}
		depth[s.Account] = d
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}

// String renders the plan as "a/web -> b/web -> target/web".
func (p *Plan) String() string {
	names := make([]string, 0, len(p.Steps))
	for _, s := range p.Steps {
		names = append(names, s.Account.String())
	}
	return strings.Join(names, " -> ")
}

// Common errors.
var (
	// ErrNoPlan reports that no chain reaches the target: every route
	// dead-ends in unphishable factors or exceeds the depth bound.
	ErrNoPlan = errors.New("strategy: no attack plan reaches the target")
	// ErrUnknownTarget reports a target not present in the graph.
	ErrUnknownTarget = errors.New("strategy: target not in graph")
)

// Plan returns a shallowest attack plan compromising target, bounded
// by maxDepth layers (0 means the default of 5); among the shallowest
// plans it keeps the steps few by a greedy tie-break.
//
// The plan is a witness of the solve. The target fell at some depth d
// by a path whose needs all lie in layer d−1; each of those needs is
// met by one supplier fallen at a smaller depth, and each supplier's
// own plan is read the same way. The plan's depth is therefore the
// target's closure depth, and ErrNoPlan comes exactly when the closure
// leaves the target standing or deeper than maxDepth.
func (s *Solution) Plan(target ecosys.AccountID, maxDepth int) (*Plan, error) {
	w, a, err := s.witness(target, maxDepth)
	if err != nil {
		return nil, err
	}
	return w.toPlan(w.plan(a), w.steps[a]), nil
}

// Plans returns up to limit distinct plans for target, the first being
// Plan's. The others take the target over by each takeover path within
// maxDepth in turn, shallowest first, with each supplier of the path's
// needs in turn as the first parent, completed as Plan completes a
// plan. No plan passes through the target before its last step. It is
// a diversity heuristic, not an exhaustive enumeration.
func (s *Solution) Plans(target ecosys.AccountID, maxDepth, limit int) ([]*Plan, error) {
	w, a, err := s.witness(target, maxDepth)
	if err != nil {
		return nil, err
	}
	plans := []*Plan{w.toPlan(w.plan(a), w.steps[a])}
	seen := map[string]bool{plans[0].String(): true}
	for d := w.depth[a]; d <= w.maxDepth; d++ {
		for p := w.c.pathStart[a]; p < w.c.pathStart[a+1]; p++ {
			if w.l.pathDepth(p, 0) != d {
				continue
			}
			for _, n := range w.c.pathNeeds.of(int(p)) {
				for _, sup := range w.suppliers[n] {
					if len(plans) >= limit {
						return plans, nil
					}
					if !w.usable(sup, d, a) {
						continue
					}
					if plan, parents, ok := w.assemble(a, p, d, sup, a); ok {
						alt := w.toPlan(plan, w.step(a, p, parents))
						if !seen[alt.String()] {
							seen[alt.String()] = true
							plans = append(plans, alt)
						}
					}
				}
			}
		}
	}
	return plans, nil
}

// witness reads attack plans off a solution. Needs are factors beyond
// the profile, so layer 0 is empty and every need of a fallen path is
// met by a fallen supplier.
type witness struct {
	*Solution
	maxDepth int32
	// plans memoizes each fallen account's plan, its accounts in step
	// order, and steps the account's own step in it.
	plans [][]int32
	steps []PlanStep
}

// witness returns a plan memo over s for a plan reaching target within
// maxDepth layers (0 means 5), and target's account index.
func (s *Solution) witness(target ecosys.AccountID, maxDepth int) (*witness, int32, error) {
	if maxDepth <= 0 {
		maxDepth = 5
	}
	a := int32(slices.Index(s.ids, target))
	if a < 0 {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnknownTarget, target)
	}
	if d := s.depth[a]; d == 0 || d > int32(maxDepth) {
		return nil, 0, fmt.Errorf("%w: %s (depth <= %d)", ErrNoPlan, target, maxDepth)
	}
	return &witness{Solution: s, maxDepth: int32(maxDepth),
		plans: make([][]int32, len(s.ids)),
		steps: make([]PlanStep, len(s.ids)),
	}, a, nil
}

// plan returns fallen account a's plan, memoized: among the paths a
// fell by at its depth, the witness with the fewest steps.
func (w *witness) plan(a int32) []int32 {
	if w.plans[a] == nil {
		d := w.depth[a]
		for p := w.c.pathStart[a]; p < w.c.pathStart[a+1]; p++ {
			if w.l.pathDepth(p, 0) != d {
				continue
			}
			if plan, parents, _ := w.assemble(a, p, d, -1, -1); w.plans[a] == nil || len(plan) < len(w.plans[a]) {
				w.plans[a], w.steps[a] = plan, w.step(a, p, parents)
			}
		}
	}
	return w.plans[a]
}

// usable reports whether s has fallen below depth d by a plan that
// does not pass through avoid (-1: none).
func (w *witness) usable(s, d, avoid int32) bool {
	return w.depth[s] > 0 && w.depth[s] < d && (avoid < 0 || !slices.Contains(w.plan(s), avoid))
}

// assemble returns a plan taking account a over by compiled path p,
// its accounts in step order, and the step's parents: each need of p
// is met by one usable supplier fallen below depth d. Suppliers are
// picked greedily: first forced (unless -1), then the one adding the
// fewest new steps per newly met need, then the one meeting the most
// needs, then the first in node order; an account already in the plan
// adds none. ok is false when some need has no usable supplier.
func (w *witness) assemble(a, p, d, forced, avoid int32) (plan, parents []int32, ok bool) {
	open := slices.Clone(w.c.pathNeeds.of(int(p)))
	take := func(s int32) {
		parents = append(parents, s)
		for _, x := range w.plan(s) {
			if !slices.Contains(plan, x) {
				plan = append(plan, x)
			}
		}
		open = slices.DeleteFunc(open, func(n int32) bool { return w.meets(s, n) })
	}
	if forced >= 0 {
		take(forced)
	}
	for len(open) > 0 {
		best, bestFresh, bestMet := int32(-1), 0, 0
		for _, n := range open {
			for _, s := range w.suppliers[n] {
				if !w.usable(s, d, avoid) {
					continue
				}
				fresh, met := 0, 0
				for _, x := range w.plan(s) {
					if !slices.Contains(plan, x) {
						fresh++
					}
				}
				for _, m := range open {
					if w.meets(s, m) {
						met++
					}
				}
				if best < 0 || fresh*bestMet < bestFresh*met ||
					fresh*bestMet == bestFresh*met && (met > bestMet || met == bestMet && s < best) {
					best, bestFresh, bestMet = s, fresh, met
				}
			}
		}
		if best < 0 {
			return nil, nil, false
		}
		take(best)
	}
	return append(plan, a), parents, true
}

// meets reports whether account s meets need n once fallen.
func (w *witness) meets(s, n int32) bool {
	return slices.Contains(w.c.supplies.of(int(w.c.supplyClass[s])), n)
}

// step returns account a's plan step by compiled path p after parents,
// listed in node order.
func (w *witness) step(a, p int32, parents []int32) PlanStep {
	s := PlanStep{Account: w.ids[a], PathID: w.c.pathID[p]}
	slices.Sort(parents)
	for _, x := range parents {
		s.Parents = append(s.Parents, w.ids[x])
	}
	return s
}

// toPlan turns a plan's accounts into its steps, ending with last.
func (w *witness) toPlan(plan []int32, last PlanStep) *Plan {
	steps := make([]PlanStep, 0, len(plan))
	for _, x := range plan[:len(plan)-1] {
		steps = append(steps, w.steps[x])
	}
	return &Plan{Target: last.Account, Steps: append(steps, last)}
}
