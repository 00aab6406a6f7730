package strategy

import (
	"errors"
	"fmt"
	"strings"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/tdg"
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

// FindPlan returns a minimal-step attack plan compromising target,
// searching backward through full-capacity parents and merged couple
// groups, bounded by maxDepth layers (0 means the default of 5).
//
// The search runs layer by layer: layer 1 is the fringe, and an
// account joins layer k when one of its options has every provider in
// a layer below k. An account's layer is the depth of its shallowest
// plan, and building each plan only from providers in lower layers
// keeps the search acyclic, so every account's best plan is solved
// once and reused.
func FindPlan(g *tdg.Graph, target ecosys.AccountID, maxDepth int) (*Plan, error) {
	if maxDepth <= 0 {
		maxDepth = 5
	}
	if _, ok := g.Node(target); !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTarget, target)
	}
	s := newSearcher(g, maxDepth)
	steps, ok := s.solve(target)
	if !ok || s.layer[target] > maxDepth {
		return nil, fmt.Errorf("%w: %s (depth <= %d)", ErrNoPlan, target, maxDepth)
	}
	return &Plan{Target: target, Steps: steps}, nil
}

type searcher struct {
	g        *tdg.Graph
	maxDepth int
	// optionsByNode indexes each target's provider options.
	optionsByNode map[ecosys.AccountID][]option
	// layer is each plannable account's layer (absent: no plan).
	layer map[ecosys.AccountID]int
	// plans memoizes solve: each account's best plan from lower layers.
	plans map[ecosys.AccountID][]PlanStep
}

// option is one way to satisfy a node: a set of providers for a path.
type option struct {
	pathID  string
	parents []ecosys.AccountID
}

// newSearcher indexes the graph's options, single full-capacity
// parents first (cheapest), then couple groups, and assigns layers.
func newSearcher(g *tdg.Graph, maxDepth int) *searcher {
	s := &searcher{
		g:             g,
		maxDepth:      maxDepth,
		optionsByNode: make(map[ecosys.AccountID][]option),
		layer:         make(map[ecosys.AccountID]int),
		plans:         make(map[ecosys.AccountID][]PlanStep),
	}
	seen := make(map[string]bool)
	for _, e := range g.StrongEdges() {
		key := e.To.String() + "|" + e.From.String() + "|" + e.PathID
		if seen[key] {
			continue
		}
		seen[key] = true
		s.optionsByNode[e.To] = append(s.optionsByNode[e.To],
			option{pathID: e.PathID, parents: []ecosys.AccountID{e.From}})
	}
	for _, c := range g.Couples(ecosys.AccountID{}) {
		s.optionsByNode[c.Target] = append(s.optionsByNode[c.Target],
			option{pathID: c.PathID, parents: append([]ecosys.AccountID(nil), c.Members...)})
	}
	nodes := g.Nodes()
	for _, id := range nodes {
		if g.IsFringe(id) {
			s.layer[id] = 1
		}
	}
	for k := 2; ; k++ {
		var joined []ecosys.AccountID
		for _, id := range nodes {
			if _, ok := s.layer[id]; ok {
				continue
			}
			for _, opt := range s.optionsByNode[id] {
				if s.below(opt, k) {
					joined = append(joined, id)
					break
				}
			}
		}
		if len(joined) == 0 {
			return s
		}
		for _, id := range joined {
			s.layer[id] = k
		}
	}
}

// below reports whether every provider of opt sits in a layer below k.
func (s *searcher) below(opt option, k int) bool {
	for _, p := range opt.parents {
		if l, ok := s.layer[p]; !ok || l >= k {
			return false
		}
	}
	return true
}

// fringePath returns the path ID a fringe node falls by.
func (s *searcher) fringePath(id ecosys.AccountID) string {
	node, _ := s.g.Node(id)
	ap := s.g.Profile()
	for _, p := range node.Paths {
		if p.Purpose != ecosys.PurposeSignIn && p.Purpose != ecosys.PurposeReset {
			continue
		}
		if ap.CanSatisfy(p) {
			return p.ID
		}
	}
	return ""
}

// solve returns the fewest-step plan compromising id whose options
// draw only on providers in lower layers (ties keep the first option).
func (s *searcher) solve(id ecosys.AccountID) ([]PlanStep, bool) {
	if steps, ok := s.plans[id]; ok {
		return steps, true
	}
	k, ok := s.layer[id]
	if !ok {
		return nil, false
	}
	if k == 1 {
		steps := []PlanStep{{Account: id, PathID: s.fringePath(id)}}
		s.plans[id] = steps
		return steps, true
	}
	var best []PlanStep
	for _, opt := range s.optionsByNode[id] {
		if !s.below(opt, k) {
			continue
		}
		merged := s.merge(opt.parents)
		merged = append(merged, PlanStep{Account: id, PathID: opt.pathID, Parents: opt.parents})
		if best == nil || len(merged) < len(best) {
			best = merged
		}
	}
	s.plans[id] = best
	return best, true
}

// merge concatenates the plans of parents, each account once. Every
// parent must be solvable.
func (s *searcher) merge(parents []ecosys.AccountID) []PlanStep {
	merged := make([]PlanStep, 0, 4)
	have := make(map[ecosys.AccountID]bool)
	for _, parent := range parents {
		if have[parent] {
			continue
		}
		sub, _ := s.solve(parent)
		for _, step := range sub {
			if !have[step.Account] {
				have[step.Account] = true
				merged = append(merged, step)
			}
		}
	}
	return merged
}

// FindPlans enumerates up to limit distinct plans for target, shortest
// first, by iteratively excluding the first-hop option of each found
// plan. It is a diversity heuristic, not an exhaustive enumeration.
func FindPlans(g *tdg.Graph, target ecosys.AccountID, maxDepth, limit int) ([]*Plan, error) {
	first, err := FindPlan(g, target, maxDepth)
	if err != nil {
		return nil, err
	}
	plans := []*Plan{first}
	if limit <= 1 {
		return plans, nil
	}
	seen := map[string]bool{first.String(): true}
	if maxDepth <= 0 {
		maxDepth = 5
	}
	s := newSearcher(g, maxDepth)
	for attempt := 0; attempt < 8*limit && len(plans) < limit; attempt++ {
		steps, ok := s.solveExcluding(target, attempt)
		if !ok {
			break
		}
		p := &Plan{Target: target, Steps: steps}
		if seen[p.String()] {
			break
		}
		seen[p.String()] = true
		plans = append(plans, p)
	}
	return plans, nil
}

// solveExcluding returns a plan for id through the first usable option
// after rotating id's first skip+1 options to the back, to force plan
// diversity. An option is usable when every provider has a plan within
// maxDepth-1 layers that does not pass through id.
func (s *searcher) solveExcluding(id ecosys.AccountID, skip int) ([]PlanStep, bool) {
	opts := s.optionsByNode[id]
	if len(opts) <= 1 {
		return nil, false
	}
	rot := (skip + 1) % len(opts)
	opts = append(opts[rot:], opts[:rot]...)

	if s.g.IsFringe(id) {
		return []PlanStep{{Account: id, PathID: s.fringePath(id)}}, true
	}
	for _, opt := range opts {
		if !s.usableAvoiding(opt, id) {
			continue
		}
		merged := s.merge(opt.parents)
		return append(merged, PlanStep{Account: id, PathID: opt.pathID, Parents: opt.parents}), true
	}
	return nil, false
}

// usableAvoiding reports whether every provider of opt has a plan
// within maxDepth-1 layers that never compromises avoid.
func (s *searcher) usableAvoiding(opt option, avoid ecosys.AccountID) bool {
	for _, p := range opt.parents {
		l, ok := s.layer[p]
		if !ok || l > s.maxDepth-1 {
			return false
		}
		sub, _ := s.solve(p)
		for _, step := range sub {
			if step.Account == avoid {
				return false
			}
		}
	}
	return true
}
