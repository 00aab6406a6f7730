package strategy

import (
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/tdg"
)

// Solution is a graph's chain-reaction closure solved once: compiled,
// then run as a block of one lane with every account enrolled under the
// graph's profile. The paper's dependency depths (DepthStats), the
// attack plans (Plan, Plans) and the forward closure from no initial
// account (Forward) all read the one solve. A Solution is read-only
// after Solve and safe to share between goroutines.
type Solution struct {
	g   *tdg.Graph
	c   *Closure
	l   *Lanes
	ids []ecosys.AccountID
	// given is per account: whether it fell before the first layer
	// (nil: none did).
	given []bool
	// depth is per account: its closure depth, 0 while standing or
	// given.
	depth []int32
	// suppliers is per need: the accounts meeting it once fallen, in
	// node order.
	suppliers [][]int32
}

// Solve compiles g's closure and solves it with every account
// enrolled.
func Solve(g *tdg.Graph) *Solution { return solve(g, nil) }

// solve compiles g's closure and runs it as a block of one lane, in
// lane 0: an account marked in given falls before the first layer, its
// supplies joining layer 0, and every other account is enrolled.
func solve(g *tdg.Graph, given []bool) *Solution {
	c := CompileClosure(g)
	s := &Solution{g: g, c: c, l: c.NewLanes(), ids: g.Nodes(), given: given,
		suppliers: make([][]int32, c.needs),
	}
	one := &Word{1}
	s.l.Know(c.baseline, one)
	for a := range s.ids {
		if given != nil && given[a] {
			s.l.Give(int32(a), one)
		} else {
			s.l.Enroll(int32(a), one)
		}
		for _, n := range c.supplies.of(int(c.supplyClass[a])) {
			s.suppliers[n] = append(s.suppliers[n], int32(a))
		}
	}
	s.l.Solve()
	s.depth = make([]int32, len(s.ids))
	for _, f := range s.l.Falls() {
		s.depth[f.Account] = f.Depth
	}
	return s
}

// Graph returns the graph the solution was solved from.
func (s *Solution) Graph() *tdg.Graph { return s.g }

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

// DepthStats computes the overlapping dependency statistics of §IV.B.1
// over the graph: each takeover path's depth from the solve's recorded
// layers.
func (s *Solution) DepthStats() DepthStats {
	st := DepthStats{Total: len(s.ids)}
	for a, id := range s.ids {
		var direct, oneMiddle, twoFull, twoCouple bool
		for p := s.c.pathStart[a]; p < s.c.pathStart[a+1]; p++ {
			switch s.l.pathDepth(p, 0) {
			case 1:
				direct = true
			case 2:
				oneMiddle = true
			case 3:
				if s.g.HasStrongFor(id, s.c.pathID[p]) {
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
		if s.depth[a] == 0 {
			st.Uncompromisable++
		}
	}
	return st
}
