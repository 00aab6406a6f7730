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
// pair, numbered from 0. One compile serves a graph's Solution (every
// account enrolled, solved once) and the campaign's per-victim closure
// (the victim's accounts only, plus leaked factors), both through
// Lanes. A Closure is read-only after CompileClosure and safe to share
// between goroutines.
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
	// Accounts whose compiled paths have the same need lists, in order,
	// share a path class, pathClass[a], or −1 with no compiled path;
	// classRep[k] is class k's first account. The catalog's 243
	// accounts form 46 classes and 11 have no compiled path; under
	// fortify-all, 8 classes and 168.
	pathClass, classRep []int32
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
	paths := make(map[string]int32)
	var key, pathKey []byte
	var sup []int32
	var pathNeeds [][]int32
	supplies := make([][]int32, len(ids))
	byFactor := make([][]int32, 64)
	for a, id := range ids {
		node, _ := g.Node(id)
		first := len(pathNeeds)
		pathKey = pathKey[:0]
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
			pathKey = appendKey(binary.LittleEndian.AppendUint32(pathKey, uint32(len(needs))), needs)
		}
		cls := int32(-1)
		if len(pathNeeds) > first {
			var ok bool
			if cls, ok = paths[string(pathKey)]; !ok {
				cls = int32(len(c.classRep))
				paths[string(pathKey)] = cls
				c.classRep = append(c.classRep, int32(a))
			}
		}
		c.pathClass = append(c.pathClass, cls)
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

// BlockLanes is the number of lanes in a block, one victim per lane.
const BlockLanes = 256

// Word is a block's lane word: bit l of Word[k] is lane 64k+l.
type Word [BlockLanes / 64]uint64

// Or adds the lanes of x to w.
func (w *Word) Or(x *Word) {
	w[0], w[1], w[2], w[3] = w[0]|x[0], w[1]|x[1], w[2]|x[2], w[3]|x[3]
}

// Count returns the number of lanes set in w.
func (w *Word) Count() int {
	return bits.OnesCount64(w[0]) + bits.OnesCount64(w[1]) + bits.OnesCount64(w[2]) + bits.OnesCount64(w[3])
}

// Lanes is the working set of one closure evaluation over a block of
// up to BlockLanes victims, one victim per bit lane, reused block after
// block: Enroll each victim's accounts and Know its factors, Solve,
// read Falls, then Reset. A single victim is a block of one, in lane 0
// (Word{1}). Each goroutine owns its own Lanes.
type Lanes struct {
	c *Closure
	// enrolled and fallen are per account: the lanes holding it and the
	// lanes where it has fallen.
	enrolled, fallen []Word
	active, pending  []int32
	// fellNow is per supply class: the lanes where one of its accounts
	// fell in the layer being evaluated.
	fellNow []Word
	// meets is per path class: the lanes where one of its paths has all
	// its needs met in the layer being evaluated.
	meets []Word
	// layers holds, one word per need and layer, the lanes meeting each
	// need after each layer: layer 0 by the known factors and given
	// accounts, layer d also by the supplies of every account fallen by
	// depth d in that lane.
	layers []Word
	falls  []Fall
}

// Fall records that an account fell at one depth in a set of lanes.
type Fall struct {
	Account int32
	// Depth is the number of compromise layers needed to take the
	// account over (1 = attacker profile alone).
	Depth int32
	Lanes Word
}

// NewLanes returns an empty block over c.
func (c *Closure) NewLanes() *Lanes {
	n := len(c.pathStart) - 1
	return &Lanes{
		c:        c,
		enrolled: make([]Word, n),
		fallen:   make([]Word, n),
		active:   make([]int32, 0, n),
		fellNow:  make([]Word, len(c.supplies.start)-1),
		meets:    make([]Word, len(c.classRep)),
		layers:   make([]Word, c.needs, 8*c.needs),
	}
}

// Enroll adds account a to the footprints of the given lanes. An
// account without a compiled path can never fall, so it is left out.
func (l *Lanes) Enroll(a int32, lanes *Word) {
	if e := &l.enrolled[a]; *e != (Word{}) {
		*e = Word{e[0] | lanes[0], e[1] | lanes[1], e[2] | lanes[2], e[3] | lanes[3]}
	} else if l.c.pathClass[a] >= 0 {
		*e = *lanes
		l.active = append(l.active, a)
	}
}

// Know adds the factors of mask (FactorBit bits, the Baseline included
// when the lanes hold it) to the attacker's knowledge in the given
// lanes.
func (l *Lanes) Know(mask uint64, lanes *Word) {
	for ; mask != 0; mask &= mask - 1 {
		l.meet(l.c.byFactor.of(bits.TrailingZeros64(mask)), lanes)
	}
}

// Give marks account a fallen before the first layer in the given
// lanes: its supplies join layer 0.
func (l *Lanes) Give(a int32, lanes *Word) {
	l.meet(l.c.supplies.of(int(l.c.supplyClass[a])), lanes)
}

// meet sets needs in layer 0 for the given lanes.
func (l *Lanes) meet(needs []int32, lanes *Word) {
	for _, n := range needs {
		l.layers[n].Or(lanes)
	}
}

// Solve runs the layered closure in every lane at once and returns the
// number of layers it evaluated. Each layer d first finds, per path
// class, the lanes where one of the class's paths has all its needs in
// layer d−1; an enrolled account falls at depth d in those of its lanes
// where it still stands, and the lanes where it fell OR, through its
// supply class, into its supplies' words of layer d. The layers stop at
// the first one where no lane meets a new need: a lane whose layer
// gained nothing has nothing new to offer any account, so no later
// layer can gain anything either.
func (l *Lanes) Solve() int {
	c, n := l.c, l.c.needs
	pending := append(l.pending[:0], l.active...)
	d := int32(0)
	for len(pending) > 0 {
		d++
		l.layers = append(l.layers, l.layers[len(l.layers)-n:]...)
		avail, next := l.layers[len(l.layers)-2*n:len(l.layers)-n], l.layers[len(l.layers)-n:]
		for cls, rep := range c.classRep {
			var m0, m1, m2, m3 uint64
			for p := c.pathStart[rep]; p < c.pathStart[rep+1]; p++ {
				x0, x1, x2, x3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
				for _, need := range c.pathNeeds.of(int(p)) {
					w := &avail[need]
					x0, x1, x2, x3 = x0&w[0], x1&w[1], x2&w[2], x3&w[3]
				}
				m0, m1, m2, m3 = m0|x0, m1|x1, m2|x2, m3|x3
			}
			m := &l.meets[cls]
			m[0], m[1], m[2], m[3] = m0, m1, m2, m3
		}
		keep := pending[:0]
		for _, a := range pending {
			e, f, m := &l.enrolled[a], &l.fallen[a], &l.meets[c.pathClass[a]]
			o0, o1, o2, o3 := e[0]&^f[0], e[1]&^f[1], e[2]&^f[2], e[3]&^f[3]
			n0, n1, n2, n3 := o0&m[0], o1&m[1], o2&m[2], o3&m[3]
			if n0|n1|n2|n3 != 0 {
				f[0], f[1], f[2], f[3] = f[0]|n0, f[1]|n1, f[2]|n2, f[3]|n3
				// Field by field: a literal is built on the stack and
				// copied out by wider loads than its stores, which stalls.
				l.falls = append(l.falls, Fall{})
				fl := &l.falls[len(l.falls)-1]
				fl.Account, fl.Depth = a, d
				fl.Lanes[0], fl.Lanes[1], fl.Lanes[2], fl.Lanes[3] = n0, n1, n2, n3
				s := &l.fellNow[c.supplyClass[a]]
				s[0], s[1], s[2], s[3] = s[0]|n0, s[1]|n1, s[2]|n2, s[3]|n3
			}
			if (o0^n0)|(o1^n1)|(o2^n2)|(o3^n3) != 0 {
				keep = append(keep, a)
			}
		}
		pending = keep
		for cls := range l.fellNow {
			if fell := &l.fellNow[cls]; fell[0]|fell[1]|fell[2]|fell[3] != 0 {
				for _, need := range c.supplies.of(cls) {
					next[need].Or(fell)
				}
				*fell = Word{}
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
			met = met && layer[need][lane>>6]>>(lane&63)&1 == 1
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
		l.enrolled[a], l.fallen[a] = Word{}, Word{}
	}
	l.active, l.falls = l.active[:0], l.falls[:0]
	l.layers = l.layers[:l.c.needs]
	clear(l.layers)
}
