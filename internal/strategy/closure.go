package strategy

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/tdg"
)

// Closure is the chain-reaction closure compiled from a Transformation
// Dependency Graph into need lists. Accounts are indices in graph node
// order (account a is g.Nodes()[a]). Each factor a takeover path needs
// beyond the graph's attacker profile is interned, with the accounts
// able to supply it, as a need: one distinct (factor, supplier set)
// pair, numbered from 0. One compile serves the paper's
// ecosystem-wide dependency depths (PathLayers, every account enrolled)
// and the campaign's per-victim closure (the victim's accounts only,
// plus leaked factors), both through Lanes. A Closure is read-only
// after CompileClosure and safe to share between goroutines.
type Closure struct {
	// needs is the number of interned needs, at least 1.
	needs int
	// Account a's compiled paths are [pathStart[a], pathStart[a+1]);
	// paths demanding unphishable factors never fall and are dropped.
	pathStart []int32
	pathID    []string
	// Accounts that meet the same needs once fallen share a supply
	// class, supplyClass[a]; the catalog's 243 accounts form 38.
	supplyClass []int32
	// pathNeeds (per path: its needs), supplies (per supply class: the
	// needs its accounts meet once fallen) and byFactor (per factor bit:
	// the needs a known factor meets).
	pathNeeds, supplies, byFactor lists
	// baseline is the graph profile's factor mask.
	baseline uint64
}

// lists is a table of need lists in one backing array: list i is
// items[start[i]:start[i+1]].
type lists struct{ start, items []int32 }

// newLists flattens rows into a lists table.
func newLists(rows [][]int32) lists {
	l := lists{start: make([]int32, 1, len(rows)+1)}
	for _, row := range rows {
		l.items = append(l.items, row...)
		l.start = append(l.start, int32(len(l.items)))
	}
	return l
}

// of returns list i.
func (l *lists) of(i int) []int32 { return l.items[l.start[i]:l.start[i+1]] }

// FactorBit maps a factor kind to its bit in a known-factor mask.
func FactorBit(f ecosys.FactorKind) uint64 { return 1 << uint(f) }

// CompileClosure flattens g's takeover paths (sign-in and password
// reset) into need lists, with g's profile factors as the baseline.
func CompileClosure(g *tdg.Graph) *Closure {
	ids := g.Nodes()
	c := &Closure{pathStart: make([]int32, 1, len(ids)+1)}
	for _, f := range g.Profile().Factors().Sorted() {
		c.baseline |= FactorBit(f)
	}
	interned := make(map[string]int32)
	var key []byte
	var sup []int32
	var pathNeeds [][]int32
	supplies := make([][]int32, len(ids))
	byFactor := make([][]int32, 64)
	for _, id := range ids {
		node, _ := g.Node(id)
	pathLoop:
		for _, path := range node.Paths {
			if path.Purpose != ecosys.PurposeSignIn && path.Purpose != ecosys.PurposeReset {
				continue // only takeover paths propagate the chain
			}
			var needs []int32
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
				sup = g.AppendSuppliers(sup[:0], id, f)
				key = appendKey(append(key[:0], byte(f)), sup)
				n, ok := interned[string(key)]
				if !ok {
					n = int32(len(interned))
					interned[string(key)] = n
					byFactor[f] = append(byFactor[f], n)
					for _, s := range sup {
						supplies[s] = append(supplies[s], n)
					}
				}
				needs = append(needs, n)
			}
			pathNeeds = append(pathNeeds, needs)
			c.pathID = append(c.pathID, path.ID)
		}
		c.pathStart = append(c.pathStart, int32(len(pathNeeds)))
	}
	// At least one word per layer, so len(layers) counts the layers.
	c.needs = max(1, len(interned))
	classes := make(map[string]int32)
	var classSupplies [][]int32
	for _, sup := range supplies {
		key = appendKey(key[:0], sup)
		cls, ok := classes[string(key)]
		if !ok {
			cls = int32(len(classSupplies))
			classes[string(key)] = cls
			classSupplies = append(classSupplies, sup)
		}
		c.supplyClass = append(c.supplyClass, cls)
	}
	c.pathNeeds, c.supplies, c.byFactor = newLists(pathNeeds), newLists(classSupplies), newLists(byFactor)
	return c
}

// appendKey appends list's bytes to key, to intern lists in a map.
func appendKey(key []byte, list []int32) []byte {
	for _, x := range list {
		key = binary.LittleEndian.AppendUint32(key, uint32(x))
	}
	return key
}

// Baseline returns the factor mask of the profile the closure was
// compiled under.
func (c *Closure) Baseline() uint64 { return c.baseline }

// Lanes is the working set of one closure evaluation over a block of
// up to 64 victims, one victim per bit lane, reused block after block:
// Enroll each victim's accounts and Know its factors, Solve, read
// Falls, then Reset. A single victim is a block of one, in lane 0.
// Each goroutine owns its own Lanes.
type Lanes struct {
	c *Closure
	// enrolled and fallen are per account: the lanes holding it and the
	// lanes where it has fallen.
	enrolled, fallen []uint64
	active, pending  []int32
	// fellNow is per supply class: the lanes where one of its accounts
	// fell in the layer being evaluated.
	fellNow []uint64
	// layers holds, one word per need and layer, the lanes meeting each
	// need after each layer: layer 0 by the known factors and given
	// accounts, layer d also by the supplies of every account fallen by
	// depth d in that lane.
	layers []uint64
	falls  []Fall
}

// Fall records that an account fell at one depth in a set of lanes.
type Fall struct {
	Account int32
	// Depth is the number of compromise layers needed to take the
	// account over (1 = attacker profile alone).
	Depth int32
	Lanes uint64
}

// NewLanes returns an empty block over c.
func (c *Closure) NewLanes() *Lanes {
	n := len(c.pathStart) - 1
	return &Lanes{
		c:        c,
		enrolled: make([]uint64, n),
		fallen:   make([]uint64, n),
		active:   make([]int32, 0, n),
		fellNow:  make([]uint64, len(c.supplies.start)-1),
		layers:   make([]uint64, c.needs, 8*c.needs),
	}
}

// Enroll adds account a to the footprints of the given lanes.
func (l *Lanes) Enroll(a int32, lanes uint64) {
	if l.enrolled[a] == 0 {
		l.active = append(l.active, a)
	}
	l.enrolled[a] |= lanes
}

// Know adds the factors of mask (FactorBit bits, the Baseline included
// when the lanes hold it) to the attacker's knowledge in the given
// lanes.
func (l *Lanes) Know(mask, lanes uint64) {
	for ; mask != 0; mask &= mask - 1 {
		l.meet(l.c.byFactor.of(bits.TrailingZeros64(mask)), lanes)
	}
}

// Give marks account a fallen before the first layer in the given
// lanes: its supplies join layer 0.
func (l *Lanes) Give(a int32, lanes uint64) {
	l.meet(l.c.supplies.of(int(l.c.supplyClass[a])), lanes)
}

// meet sets needs in layer 0 for the given lanes.
func (l *Lanes) meet(needs []int32, lanes uint64) {
	for _, n := range needs {
		l.layers[n] |= lanes
	}
}

// Solve runs the layered closure in every lane at once and returns the
// number of layers it evaluated. An enrolled account falls in a lane at
// depth d when one of its paths' needs all lie in that lane's layer
// d−1, and the lanes where it fell at depth d OR, through its supply
// class, into its supplies' words of layer d. The layers stop at the
// first one where no lane meets a new need: a lane whose layer gained
// nothing has nothing new to offer any account, so no later layer can
// gain anything either.
func (l *Lanes) Solve() int {
	c, n := l.c, l.c.needs
	pending := append(l.pending[:0], l.active...)
	d := int32(0)
	for len(pending) > 0 {
		d++
		l.layers = append(l.layers, l.layers[len(l.layers)-n:]...)
		avail, next := l.layers[len(l.layers)-2*n:len(l.layers)-n], l.layers[len(l.layers)-n:]
		keep := pending[:0]
		for _, a := range pending {
			open := l.enrolled[a] &^ l.fallen[a]
			fell := uint64(0)
			for p := c.pathStart[a]; p < c.pathStart[a+1] && fell != open; p++ {
				m := open
				for _, need := range c.pathNeeds.of(int(p)) {
					m &= avail[need]
				}
				fell |= m
			}
			if fell != 0 {
				l.fallen[a] |= fell
				l.falls = append(l.falls, Fall{Account: a, Depth: d, Lanes: fell})
				l.fellNow[c.supplyClass[a]] |= fell
			}
			if open != fell {
				keep = append(keep, a)
			}
		}
		pending = keep
		for cls, fell := range l.fellNow {
			if fell != 0 {
				for _, need := range c.supplies.of(cls) {
					next[need] |= fell
				}
				l.fellNow[cls] = 0
			}
		}
		if slices.Equal(next, avail) {
			break // no lane met a new need: no later layer can fall
		}
	}
	l.pending = pending
	return int(d)
}

// Falls returns, after Solve, every fall in layer order.
func (l *Lanes) Falls() []Fall { return l.falls }

// pathDepth returns compiled path p's depth in lane after Solve: 1 +
// the first layer that meets all its needs in that lane, 0 when none
// does.
func (l *Lanes) pathDepth(p int32, lane uint) int32 {
	needs := l.c.pathNeeds.of(int(p))
	for d, n := 0, l.c.needs; d*n < len(l.layers); d++ {
		layer := l.layers[d*n:]
		met := true
		for _, need := range needs {
			met = met && layer[need]>>lane&1 == 1
		}
		if met {
			return int32(d + 1)
		}
	}
	return 0
}

// Reset empties the block for the next evaluation.
func (l *Lanes) Reset() {
	for _, a := range l.active {
		l.enrolled[a], l.fallen[a] = 0, 0
	}
	l.active, l.falls = l.active[:0], l.falls[:0]
	l.layers = l.layers[:l.c.needs]
	clear(l.layers)
}
