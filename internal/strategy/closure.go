package strategy

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/tdg"
)

// Closure is the chain-reaction closure compiled from a Transformation
// Dependency Graph into need masks. Accounts are indices in graph node
// order (account a is g.Nodes()[a]). Each factor a takeover path needs
// beyond the graph's attacker profile is interned, with the accounts
// able to supply it, as a need: one distinct (factor, supplier set)
// pair, one bit of every mask. One compile serves the paper's
// ecosystem-wide dependency depths (PathLayers, every account enrolled)
// and the campaign's per-victim closure (the victim's accounts only,
// plus leaked factors). A Closure is read-only after CompileClosure and
// safe to share between goroutines.
type Closure struct {
	// words is the mask width in uint64 words, sized to the needs.
	words int
	// Account a's compiled paths are [pathStart[a], pathStart[a+1]);
	// paths demanding unphishable factors never fall and are dropped.
	pathStart []int32
	pathID    []string
	// pathMask (per path: its needs), supplies (per account: the needs
	// it meets once fallen) and byFactor (per factor bit: the needs a
	// known factor meets) hold words each.
	pathMask, supplies, byFactor []uint64
	// baseline is the graph profile's factor mask.
	baseline uint64
}

// FactorBit maps a factor kind to its bit in a known-factor mask.
func FactorBit(f ecosys.FactorKind) uint64 { return 1 << uint(f) }

// CompileClosure flattens g's takeover paths (sign-in and password
// reset) into need masks, with g's profile factors as the baseline.
func CompileClosure(g *tdg.Graph) *Closure {
	ids := g.Nodes()
	index := make(map[ecosys.AccountID]int32, len(ids))
	for i, id := range ids {
		index[id] = int32(i)
	}
	c := &Closure{pathStart: make([]int32, 1, len(ids)+1)}
	for _, f := range g.Profile().Factors().Sorted() {
		c.baseline |= FactorBit(f)
	}
	interned := make(map[string]int)
	var factors []ecosys.FactorKind // per need
	var suppliers [][]int32         // per need
	var pathNeeds [][]int           // per path
	for _, id := range ids {
		node, _ := g.Node(id)
	pathLoop:
		for _, path := range node.Paths {
			if path.Purpose != ecosys.PurposeSignIn && path.Purpose != ecosys.PurposeReset {
				continue // only takeover paths propagate the chain
			}
			var needs []int
			seen := c.baseline
			for _, f := range path.Factors {
				if seen&FactorBit(f) != 0 {
					continue
				}
				seen |= FactorBit(f)
				if f.Unphishable() {
					// Neither harvested information nor leak dossiers
					// supply biometrics/U2F: the path never falls.
					continue pathLoop
				}
				var sup []int32
				for _, from := range g.Suppliers(id, f) {
					sup = append(sup, index[from])
				}
				key := fmt.Sprint(f, sup)
				n, ok := interned[key]
				if !ok {
					n = len(factors)
					interned[key] = n
					factors, suppliers = append(factors, f), append(suppliers, sup)
				}
				needs = append(needs, n)
			}
			pathNeeds = append(pathNeeds, needs)
			c.pathID = append(c.pathID, path.ID)
		}
		c.pathStart = append(c.pathStart, int32(len(pathNeeds)))
	}
	w := max(1, (len(factors)+63)/64)
	c.words = w
	c.pathMask = make([]uint64, len(pathNeeds)*w)
	c.supplies = make([]uint64, len(ids)*w)
	c.byFactor = make([]uint64, 64*w)
	set := func(mask []uint64, row, n int) { mask[row*w+n>>6] |= 1 << (uint(n) & 63) }
	for p, needs := range pathNeeds {
		for _, n := range needs {
			set(c.pathMask, p, n)
		}
	}
	for n, f := range factors {
		set(c.byFactor, int(f), n)
		for _, s := range suppliers[n] {
			set(c.supplies, int(s), n)
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
	// depth is per account: 0 = not fallen (or not enrolled).
	depth           []int32
	active, pending []int32
	// layers holds, words per layer, the needs met after each layer:
	// layer 0 by the known factors, layer d also by the supplies of every
	// account fallen by depth d.
	layers []uint64
}

// NewRun returns an empty run over c.
func (c *Closure) NewRun() *ClosureRun {
	return &ClosureRun{c: c, depth: make([]int32, len(c.pathStart)-1), active: make([]int32, 0, 64)}
}

// Enroll adds account a to the footprint.
func (r *ClosureRun) Enroll(a int32) { r.active = append(r.active, a) }

// Solve runs the layered closure over the enrolled accounts. The needs
// met by know (the attacker's factor mask, Baseline included) and by
// the given accounts, fallen before the first layer, form layer 0. An
// enrolled account falls at depth d when one of its paths needs
// nothing outside layer d−1, and the accounts fallen at depth d add
// their supplies to form layer d. Each depth is found once, and the
// layers stop at the first one that meets no new need.
func (r *ClosureRun) Solve(know uint64, given ...int32) {
	c, w := r.c, r.c.words
	r.layers = append(r.layers[:0], make([]uint64, w)...)
	for k := know; k != 0; k &= k - 1 {
		or(r.layers, c.row(c.byFactor, bits.TrailingZeros64(k)))
	}
	for _, a := range given {
		or(r.layers, c.row(c.supplies, int(a)))
	}
	pending := append(r.pending[:0], r.active...)
	for d := int32(1); len(pending) > 0; d++ {
		r.layers = append(r.layers, r.layers[len(r.layers)-w:]...)
		avail, next := r.layers[len(r.layers)-2*w:len(r.layers)-w], r.layers[len(r.layers)-w:]
		keep := pending[:0]
		for _, a := range pending {
			if !c.falls(a, avail) {
				keep = append(keep, a)
				continue
			}
			r.depth[a] = d
			or(next, c.row(c.supplies, int(a)))
		}
		pending = keep
		if slices.Equal(next, avail) {
			break // no new need met: no later layer can fall
		}
	}
	r.pending = pending
}

// row returns row i of one of c's mask tables.
func (c *Closure) row(table []uint64, i int) []uint64 { return table[i*c.words : (i+1)*c.words] }

// falls reports whether one of account a's paths needs nothing outside
// avail.
func (c *Closure) falls(a int32, avail []uint64) bool {
	for p := c.pathStart[a]; p < c.pathStart[a+1]; p++ {
		if covers(c.row(c.pathMask, int(p)), avail) {
			return true
		}
	}
	return false
}

// pathDepth returns compiled path p's depth after Solve: 1 + the first
// layer that covers its needs, 0 when none does.
func (r *ClosureRun) pathDepth(p int32) int32 {
	for d, w := 0, r.c.words; d*w < len(r.layers); d++ {
		if covers(r.c.row(r.c.pathMask, int(p)), r.layers[d*w:]) {
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
