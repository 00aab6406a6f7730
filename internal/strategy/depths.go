package strategy

import "github.com/actfort/actfort/internal/tdg"

// DepthStats reproduces the paper's §IV.B.1 dependency percentages
// with the paper's own overlapping semantics: one service can have
// multiple reset combinations, so it may count in several categories
// at once ("the overall percentage can not be summed up to 100%").
type DepthStats struct {
	Total int
	// Direct: some path falls to the attacker profile alone (depth 1).
	Direct int
	// OneMiddle: some path needs exactly one layer of middle accounts
	// (depth 2).
	OneMiddle int
	// TwoLayerFull: some depth-3 path where a single full-capacity
	// parent covers it.
	TwoLayerFull int
	// TwoLayerCouple: some depth-3 path needing jointly contributing
	// half-capacity parents.
	TwoLayerCouple int
	// Uncompromisable: no chain of any depth reaches the account.
	Uncompromisable int
}

// Pct converts a count to a percentage of Total.
func (s DepthStats) Pct(n int) float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(s.Total)
}

// PathLayers computes the overlapping dependency statistics of
// §IV.B.1 over a graph: the compiled closure as a block of one lane
// with every account enrolled, then each takeover path's depth from
// the block's recorded layers.
func PathLayers(g *tdg.Graph) DepthStats {
	c := CompileClosure(g)
	one := &Word{1} // a block of one, in lane 0
	l := c.NewLanes()
	for a := range l.enrolled {
		l.Enroll(int32(a), one)
	}
	l.Know(c.baseline, one)
	l.Solve()
	st := DepthStats{Total: g.Len()}
	for a, id := range g.Nodes() {
		var direct, oneMiddle, twoFull, twoCouple bool
		for p := c.pathStart[a]; p < c.pathStart[a+1]; p++ {
			switch l.pathDepth(p, 0) {
			case 1:
				direct = true
			case 2:
				oneMiddle = true
			case 3:
				if g.HasStrongFor(id, c.pathID[p]) {
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
		if l.fallen[a] == (Word{}) {
			st.Uncompromisable++
		}
	}
	return st
}
