package strategy

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/tdg"
)

// Unreachable is the depth of an account no chain compromises.
const Unreachable = math.MaxInt32

// AccountDepths returns each account's solved depth (1 = attacker
// profile alone, Unreachable = never).
func (s *Solution) AccountDepths() map[ecosys.AccountID]int {
	out := make(map[ecosys.AccountID]int, len(s.ids))
	for a, id := range s.ids {
		out[id] = Unreachable
		if d := s.depth[a]; d > 0 {
			out[id] = int(d)
		}
	}
	return out
}

// ClosureRun is the scalar layered closure the lane engine replaced,
// kept as its oracle: one victim at a time over dense need masks, one
// bit per need and words per mask. NewRun builds the masks from the
// compiled need lists. Enroll the accounts, Solve, read Depth, then
// Reset.
type ClosureRun struct {
	c     *Closure
	words int
	// pathMask (per path: its needs), supplies (per account: the needs
	// it meets once fallen) and byFactor (per factor bit: the needs a
	// known factor meets) hold words each.
	pathMask, supplies, byFactor []uint64
	// depth is per account: 0 = not fallen (or not enrolled).
	depth           []int32
	active, pending []int32
	// layers holds, words per layer, the needs met after each layer.
	layers []uint64
}

// NewRun returns an empty scalar run over c.
func (c *Closure) NewRun() *ClosureRun {
	w := (c.needs + 63) / 64
	masks := func(rows int, needs func(i int) []int32) []uint64 {
		out := make([]uint64, rows*w)
		for i := range rows {
			for _, n := range needs(i) {
				out[i*w+int(n>>6)] |= 1 << (uint(n) & 63)
			}
		}
		return out
	}
	accounts := len(c.pathStart) - 1
	return &ClosureRun{c: c, words: w,
		pathMask: masks(len(c.pathID), c.pathNeeds.of),
		supplies: masks(accounts, func(a int) []int32 { return c.supplies.of(int(c.supplyClass[a])) }),
		byFactor: masks(64, c.byFactor.of),
		depth:    make([]int32, accounts)}
}

// Enroll adds account a to the footprint.
func (r *ClosureRun) Enroll(a int32) { r.active = append(r.active, a) }

// Solve runs the layered closure over the enrolled accounts: layer 0
// is the needs met by know and by the given accounts; an enrolled
// account falls at depth d when one of its paths needs nothing outside
// layer d−1, and the accounts fallen at depth d add their supplies to
// form layer d, until a layer meets no new need.
func (r *ClosureRun) Solve(know uint64, given ...int32) {
	w := r.words
	r.layers = append(r.layers[:0], make([]uint64, w)...)
	for k := know; k != 0; k &= k - 1 {
		or(r.layers, r.row(r.byFactor, bits.TrailingZeros64(k)))
	}
	for _, a := range given {
		or(r.layers, r.row(r.supplies, int(a)))
	}
	pending := append(r.pending[:0], r.active...)
	for d := int32(1); len(pending) > 0; d++ {
		r.layers = append(r.layers, r.layers[len(r.layers)-w:]...)
		avail, next := r.layers[len(r.layers)-2*w:len(r.layers)-w], r.layers[len(r.layers)-w:]
		keep := pending[:0]
		for _, a := range pending {
			if !r.falls(a, avail) {
				keep = append(keep, a)
				continue
			}
			r.depth[a] = d
			or(next, r.row(r.supplies, int(a)))
		}
		pending = keep
		if slices.Equal(next, avail) {
			break
		}
	}
	r.pending = pending
}

// row returns row i of one of r's mask tables.
func (r *ClosureRun) row(table []uint64, i int) []uint64 { return table[i*r.words : (i+1)*r.words] }

// falls reports whether one of account a's paths needs nothing outside
// avail.
func (r *ClosureRun) falls(a int32, avail []uint64) bool {
	for p := r.c.pathStart[a]; p < r.c.pathStart[a+1]; p++ {
		if covers(r.row(r.pathMask, int(p)), avail) {
			return true
		}
	}
	return false
}

// pathDepth returns compiled path p's depth after Solve: 1 + the first
// layer that covers its needs, 0 when none does.
func (r *ClosureRun) pathDepth(p int32) int32 {
	for d, w := 0, r.words; d*w < len(r.layers); d++ {
		if covers(r.row(r.pathMask, int(p)), r.layers[d*w:]) {
			return int32(d + 1)
		}
	}
	return 0
}

// covers reports whether every need in mask is also in avail.
func covers(mask, avail []uint64) bool {
	for i, m := range mask {
		if m&^avail[i] != 0 {
			return false
		}
	}
	return true
}

// or sets every need of src in dst.
func or(dst, src []uint64) {
	for i, m := range src {
		dst[i] |= m
	}
}

// Depth returns account a's depth after Solve, 0 when it never falls.
func (r *ClosureRun) Depth(a int32) int32 { return r.depth[a] }

// Reset empties the footprint for the next evaluation.
func (r *ClosureRun) Reset() {
	for _, a := range r.active {
		r.depth[a] = 0
	}
	r.active = r.active[:0]
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
					a.suppliers[k] = suppliers(g, id, f)
				}
			}
		}
	}
	a.converge()
	return a
}

// suppliers returns, as account IDs, every node whose compromise
// supplies factor f for target.
func suppliers(g *tdg.Graph, target ecosys.AccountID, f ecosys.FactorKind) []ecosys.AccountID {
	ids := g.Nodes()
	var out []ecosys.AccountID
	for _, i := range g.AppendSuppliers(nil, target, f) {
		out = append(out, ids[i])
	}
	return out
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

// ReferenceDepthStats is the reference Solution.DepthStats.
func ReferenceDepthStats(g *tdg.Graph) DepthStats {
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
			pathID, ok := referenceSatisfiablePath(node, available, controlled)
			if !ok {
				continue
			}
			res.Compromised[id] = Compromise{Round: round, PathID: pathID}
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

// referenceSatisfiablePath finds the first takeover path of node
// coverable by the available factors and controlled services.
func referenceSatisfiablePath(node *tdg.Node, available ecosys.FactorSet, controlled map[string]bool) (pathID string, ok bool) {
	for _, p := range node.Paths {
		if p.Purpose != ecosys.PurposeSignIn && p.Purpose != ecosys.PurposeReset {
			continue
		}
		covered := true
		for _, f := range p.Factors {
			switch {
			case available.Has(f):
			case f == ecosys.FactorLinkedAccount:
				covered = slices.ContainsFunc(node.BoundTo, func(b string) bool { return controlled[b] })
			case f == ecosys.FactorEmailCode || f == ecosys.FactorEmailLink:
				covered = node.EmailProvider != "" && controlled[node.EmailProvider]
			default:
				covered = false
			}
			if !covered {
				break
			}
		}
		if covered {
			return p.ID, true
		}
	}
	return "", false
}

// The searcher below is the backward search Solution.Plan and Plans
// replaced, kept as their oracle: it walks full-capacity parents
// (strong edges) and the couple groups tdg records, assigns its own
// layers and solves each account's fewest-step plan from lower layers.
// Its providers are bounded by the couple file (at most
// WithMaxCoupleSize members, 64 couples per path), so it may miss or
// deepen plans the closure's witnesses find.

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
	have := s.g.Profile().Factors()
	for _, p := range takeoverOf(node) {
		if !slices.ContainsFunc(p.Factors, func(f ecosys.FactorKind) bool { return !have.Has(f) }) {
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

// findPlans is the reference Solution.Plans over the searcher's layers: up to
// limit distinct plans for target, the fewest-step plan first, then by
// iteratively excluding the first-hop option of each found plan; none
// when target has no plan within maxDepth layers.
func (s *searcher) findPlans(target ecosys.AccountID, limit int) []*Plan {
	steps, ok := s.solve(target)
	if !ok || s.layer[target] > s.maxDepth {
		return nil
	}
	plans := []*Plan{{Target: target, Steps: steps}}
	seen := map[string]bool{plans[0].String(): true}
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
	return plans
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

// ReferencePlans runs the reference Solution.Plans for every account of g
// from one search bounded by maxDepth layers (0 means 5): up to limit
// plans each, none for an account without a plan.
func ReferencePlans(g *tdg.Graph, maxDepth, limit int) map[ecosys.AccountID][]*Plan {
	if maxDepth <= 0 {
		maxDepth = 5
	}
	s := newSearcher(g, maxDepth)
	out := make(map[ecosys.AccountID][]*Plan, g.Len())
	for _, id := range g.Nodes() {
		out[id] = s.findPlans(id, limit)
	}
	return out
}
