package campaign

import (
	"fmt"
	"math/bits"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/socialdb"
	"github.com/actfort/actfort/internal/tdg"
	"github.com/actfort/actfort/internal/telecom"
)

// attackPlan is the campaign's precompiled view of the ecosystem: the
// Transformation Dependency Graph flattened into dense integer-indexed
// tables so the chain-reaction closure for one victim costs a few
// array sweeps instead of a graph build. It is computed once per
// campaign and shared read-only by every worker.
type attackPlan struct {
	// accounts lists every presence in node order.
	accounts []ecosys.AccountID
	// svcIdx maps an account to its catalog service index (the same
	// order population.ServiceSet uses).
	svcIdx []int
	// svcAccounts inverts svcIdx: per service, its account indices.
	svcAccounts [][]int32
	// exposes is the per-account post-login information bitmask
	// (1 << InfoField).
	exposes []uint32
	// paths holds, per account, every takeover path that could ever
	// fall: baseline-satisfiable paths have no needs; paths demanding
	// unphishable factors are dropped at build time.
	paths [][]pathReq
	// baseline is the attacker-profile factor bitmask (PN + SC).
	baseline uint64
}

// pathReq is one compiled takeover path.
type pathReq struct {
	// needs lists the factors beyond the baseline profile, each with
	// the accounts able to supply it.
	needs []factorNeed
}

// factorNeed is one missing factor and its suppliers.
type factorNeed struct {
	bit       uint64
	suppliers []int32
}

// factorBit maps a factor kind to its mask bit.
func factorBit(f ecosys.FactorKind) uint64 { return 1 << uint(f) }

// factorMaskOf folds a factor set into a bitmask.
func factorMaskOf(s ecosys.FactorSet) uint64 {
	var m uint64
	for _, f := range s.Sorted() {
		m |= factorBit(f)
	}
	return m
}

// buildPlan compiles the catalog into the dense tables.
func buildPlan(cat *ecosys.Catalog, platforms []ecosys.Platform) (*attackPlan, error) {
	nodes := tdg.NodesFromCatalog(cat, platforms...)
	g, err := tdg.Build(nodes, ecosys.BaselineAttacker())
	if err != nil {
		return nil, err
	}

	svcIndex := make(map[string]int, cat.Len())
	for i, svc := range cat.Services() {
		svcIndex[svc.Name] = i
	}

	p := &attackPlan{
		accounts:    make([]ecosys.AccountID, 0, len(nodes)),
		svcIdx:      make([]int, 0, len(nodes)),
		svcAccounts: make([][]int32, cat.Len()),
		exposes:     make([]uint32, 0, len(nodes)),
		paths:       make([][]pathReq, len(nodes)),
		baseline:    factorMaskOf(ecosys.BaselineAttacker().Factors()),
	}
	acctIndex := make(map[ecosys.AccountID]int32, len(nodes))
	for i := range nodes {
		n := &nodes[i]
		si, ok := svcIndex[n.ID.Service]
		if !ok {
			return nil, fmt.Errorf("campaign: node %s not in catalog", n.ID)
		}
		acctIndex[n.ID] = int32(i)
		p.accounts = append(p.accounts, n.ID)
		p.svcIdx = append(p.svcIdx, si)
		p.svcAccounts[si] = append(p.svcAccounts[si], int32(i))
		var mask uint32
		for f := range n.Exposes {
			if n.Exposes[f] {
				mask |= 1 << uint(f)
			}
		}
		p.exposes = append(p.exposes, mask)
	}

	for i := range nodes {
		n := &nodes[i]
	pathLoop:
		for _, path := range n.Paths {
			if path.Purpose != ecosys.PurposeSignIn && path.Purpose != ecosys.PurposeReset {
				continue // only takeover paths propagate the chain
			}
			var req pathReq
			seen := uint64(0)
			for _, f := range path.Factors {
				bit := factorBit(f)
				if p.baseline&bit != 0 || seen&bit != 0 {
					continue
				}
				seen |= bit
				if f.Unphishable() {
					// Neither harvested information nor leak dossiers
					// supply biometrics/U2F: the path never falls.
					continue pathLoop
				}
				var sup []int32
				for _, from := range g.Suppliers(n.ID, f) {
					sup = append(sup, acctIndex[from])
				}
				req.needs = append(req.needs, factorNeed{bit: bit, suppliers: sup})
			}
			p.paths[i] = append(p.paths[i], req)
		}
	}
	return p, nil
}

// scratch is one worker's reusable state: the per-victim chain-closure
// tables, the per-shard radio session buffer the gather-then-encrypt
// path fills before the batch encryptor runs, the per-shard coverage
// and interception marks, and the pooled burst buffer the encoded
// trace lives in. All of it is recycled shard over shard (and, for the
// burst buffer, scenario over scenario), so a steady-state shard
// attack allocates nothing population-proportional.
type scratch struct {
	enrolled    []bool
	depth       []uint8
	active      []int32
	radio       []telecom.SMSSession
	covered     []bool
	intercepted []bool
	bursts      *telecom.BurstBuffer

	// Lazy-persona working set. phone is the attribute-derivation
	// scratch buffer (phones, IMSIs, leak-record fields); strs is the
	// shard-cycle string arena (per-shard IMSIs — reset at each shard's
	// start, after release has cleared the rig caches that saw the
	// previous shard's carves); durable is the grow-only arena behind
	// leak-record strings, never reset because the engine-lifetime leak
	// DB retains them; leakRecs is the pooled per-shard record buffer
	// the harvest phase rebuilds dump rows into.
	phone    []byte
	strs     slab.Slab[byte]
	durable  slab.Slab[byte]
	leakRecs []socialdb.Record
}

func newScratch(p *attackPlan) *scratch {
	return &scratch{
		enrolled: make([]bool, len(p.accounts)),
		depth:    make([]uint8, len(p.accounts)),
		active:   make([]int32, 0, 64),
		bursts:   telecom.AcquireBurstBuffer(),
	}
}

// release returns the scratch's pooled resources; the scratch must not
// be used afterwards.
func (s *scratch) release() {
	s.bursts.Release()
	s.bursts = nil
}

// boolScratch returns a zeroed length-n bool slice, reusing s's
// storage when it is large enough.
func boolScratch(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// maxUseful bounds chain depth: beyond it further layers are counted
// in the terminal bucket, and the fixpoint stops refining.
const maxUseful = MaxDepth

// chainDepths runs the per-victim chain-reaction closure: among the
// victim's enrolled accounts, an account's depth is 1 when a compiled
// path is satisfied by the attacker's factors (baseline + leak
// dossier, in `know`), else 1 + the max over the path's missing
// factors of the min depth of any enrolled supplier — the same
// fixpoint strategy.AccountDepths runs globally, restricted to this
// victim's footprint. On return scr.active lists the victim's
// enrolled accounts and scr.depth their depths (0 = never falls).
// The caller must call scr.reset() when done.
func (p *attackPlan) chainDepths(scr *scratch, enrolled []uint64, know uint64) {
	scr.active = scr.active[:0]
	for w, word := range enrolled {
		for word != 0 {
			j := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if j >= len(p.svcAccounts) {
				break
			}
			for _, a := range p.svcAccounts[j] {
				scr.enrolled[a] = true
				scr.active = append(scr.active, a)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, a := range scr.active {
			cur := scr.depth[a]
			if cur == 1 {
				continue // already minimal
			}
			for _, path := range p.paths[a] {
				d := uint8(1)
				ok := true
				for _, need := range path.needs {
					if know&need.bit != 0 {
						continue
					}
					best := uint8(0)
					for _, s := range need.suppliers {
						if !scr.enrolled[s] {
							continue
						}
						if ds := scr.depth[s]; ds != 0 && (best == 0 || ds < best) {
							best = ds
							if best == 1 {
								break
							}
						}
					}
					if best == 0 {
						ok = false
						break
					}
					next := best + 1
					if next > maxUseful {
						next = maxUseful // clamp: deeper layers share a bucket
					}
					if next > d {
						d = next
					}
				}
				if ok && (cur == 0 || d < cur) {
					cur = d
				}
			}
			if cur != scr.depth[a] {
				scr.depth[a] = cur
				changed = true
			}
		}
	}
}

// reset clears the per-victim state touched by chainDepths.
func (s *scratch) reset() {
	for _, a := range s.active {
		s.enrolled[a] = false
		s.depth[a] = 0
	}
	s.active = s.active[:0]
}
