package strategy

import (
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/tdg"
)

// Closure is the chain-reaction closure compiled from a Transformation
// Dependency Graph into dense tables: accounts become indices in graph
// node order (account a is g.Nodes()[a]), and each takeover path
// becomes the factors it needs beyond the graph's attacker profile,
// each with the accounts able to supply it. One compile serves every
// evaluation — the paper's ecosystem-wide dependency depths
// (PathLayers, every account enrolled) and the campaign's per-victim
// closure (the victim's accounts only, plus leaked factors). A Closure
// is read-only after CompileClosure and safe to share between
// goroutines.
type Closure struct {
	// paths holds, per account, every takeover path that could ever
	// fall: profile-satisfiable paths have no needs; paths demanding
	// unphishable factors are dropped.
	paths [][]closurePath
	// baseline is the graph profile's factor mask.
	baseline uint64
}

// closurePath is one compiled takeover path.
type closurePath struct {
	// id is the path's ID in its node's Paths.
	id    string
	needs []factorNeed
}

// factorNeed is one missing factor and its suppliers.
type factorNeed struct {
	bit       uint64
	suppliers []int32
}

// FactorBit maps a factor kind to its bit in a known-factor mask.
func FactorBit(f ecosys.FactorKind) uint64 { return 1 << uint(f) }

// CompileClosure flattens g's takeover paths (sign-in and password
// reset) into the dense tables, with g's profile factors as the
// baseline.
func CompileClosure(g *tdg.Graph) *Closure {
	ids := g.Nodes()
	index := make(map[ecosys.AccountID]int32, len(ids))
	for i, id := range ids {
		index[id] = int32(i)
	}
	c := &Closure{paths: make([][]closurePath, len(ids))}
	for _, f := range g.Profile().Factors().Sorted() {
		c.baseline |= FactorBit(f)
	}
	for i, id := range ids {
		node, _ := g.Node(id)
	pathLoop:
		for _, path := range node.Paths {
			if path.Purpose != ecosys.PurposeSignIn && path.Purpose != ecosys.PurposeReset {
				continue // only takeover paths propagate the chain
			}
			cp := closurePath{id: path.ID}
			seen := uint64(0)
			for _, f := range path.Factors {
				bit := FactorBit(f)
				if c.baseline&bit != 0 || seen&bit != 0 {
					continue
				}
				seen |= bit
				if f.Unphishable() {
					// Neither harvested information nor leak dossiers
					// supply biometrics/U2F: the path never falls.
					continue pathLoop
				}
				var sup []int32
				for _, from := range g.Suppliers(id, f) {
					sup = append(sup, index[from])
				}
				cp.needs = append(cp.needs, factorNeed{bit: bit, suppliers: sup})
			}
			c.paths[i] = append(c.paths[i], cp)
		}
	}
	return c
}

// Baseline returns the factor mask of the profile the closure was
// compiled under.
func (c *Closure) Baseline() uint64 { return c.baseline }

// ClosureRun is the working set of one closure evaluation at a time,
// reused footprint after footprint: Enroll the accounts, Solve, read
// Depth over Active, then Reset. Each goroutine owns its own run.
type ClosureRun struct {
	c *Closure
	// depth is per account: 0 = not fallen (or not enrolled). Only
	// enrolled accounts are ever written, so a nonzero depth also marks
	// an enrolled supplier.
	depth  []int32
	active []int32
}

// NewRun returns an empty run over c.
func (c *Closure) NewRun() *ClosureRun {
	return &ClosureRun{c: c, depth: make([]int32, len(c.paths)), active: make([]int32, 0, 64)}
}

// Enroll adds account a to the footprint.
func (r *ClosureRun) Enroll(a int32) { r.active = append(r.active, a) }

// Solve runs the monotone fixpoint over the enrolled accounts: an
// account falls at depth 1 when a compiled path needs nothing beyond
// know (the attacker's factor mask, Baseline included), else at 1 +
// the max over the path's missing factors of the min depth of any
// enrolled supplier. Depths are exact; they only fall, so the sweeps
// end once one changes nothing.
func (r *ClosureRun) Solve(know uint64) {
	for changed := true; changed; {
		changed = false
		for _, a := range r.active {
			cur := r.depth[a]
			if cur == 1 {
				continue // already minimal
			}
			for i := range r.c.paths[a] {
				if d := r.evalPath(&r.c.paths[a][i], know); d != 0 && (cur == 0 || d < cur) {
					cur = d
				}
			}
			if cur != r.depth[a] {
				r.depth[a] = cur
				changed = true
			}
		}
	}
}

// evalPath returns p's depth under the current estimates (0 = cannot
// fall yet).
func (r *ClosureRun) evalPath(p *closurePath, know uint64) int32 {
	d := int32(1)
	for _, need := range p.needs {
		if know&need.bit != 0 {
			continue
		}
		best := int32(0)
		for _, s := range need.suppliers {
			if ds := r.depth[s]; ds != 0 && (best == 0 || ds < best) {
				best = ds
				if best == 1 {
					break
				}
			}
		}
		if best == 0 {
			return 0
		}
		if best >= d {
			d = best + 1
		}
	}
	return d
}

// Active returns the enrolled accounts in enrollment order.
func (r *ClosureRun) Active() []int32 { return r.active }

// Depth returns account a's depth after Solve: the number of
// compromise layers needed to take it over (1 = attacker profile
// alone), 0 when it never falls.
func (r *ClosureRun) Depth(a int32) int32 { return r.depth[a] }

// Reset empties the footprint for the next evaluation.
func (r *ClosureRun) Reset() {
	for _, a := range r.active {
		r.depth[a] = 0
	}
	r.active = r.active[:0]
}
