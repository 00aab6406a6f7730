package campaign

import (
	"fmt"
	"math/bits"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/sniffer"
	"github.com/actfort/actfort/internal/strategy"
	"github.com/actfort/actfort/internal/tdg"
	"github.com/actfort/actfort/internal/telecom"
)

// attackPlan is the campaign's precompiled view of the ecosystem: the
// Transformation Dependency Graph compiled into strategy's dense
// chain-reaction closure, plus the campaign's own per-account tables,
// so the closure for one victim costs a few array sweeps instead of a
// graph build. It is computed once per campaign and shared read-only
// by every worker.
type attackPlan struct {
	closure *strategy.Closure
	// svcIdx maps an account (closure index) to its catalog service
	// index (the same order population.ServiceSet uses).
	svcIdx []int
	// svcAccounts inverts svcIdx: per service, its account indices.
	svcAccounts [][]int32
	// exposes is the per-account post-login information bitmask
	// (1 << InfoField).
	exposes []uint32
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

	// The closure indexes accounts in graph node order, which is the
	// order of nodes.
	p := &attackPlan{
		closure:     strategy.CompileClosure(g),
		svcIdx:      make([]int, 0, len(nodes)),
		svcAccounts: make([][]int32, cat.Len()),
		exposes:     make([]uint32, 0, len(nodes)),
	}
	for i := range nodes {
		n := &nodes[i]
		si, ok := svcIndex[n.ID.Service]
		if !ok {
			return nil, fmt.Errorf("campaign: node %s not in catalog", n.ID)
		}
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
	return p, nil
}

// scratch is one worker's reusable state: the per-victim chain-closure
// tables, the closure inputs of the intercepted victims of the shard it
// last generated, the per-shard radio session buffer the
// gather-then-encrypt path fills before the batch encryptor runs, the
// rig's captures read back per shard, and the pooled burst buffer the
// encoded trace lives in. All of it is recycled shard over shard (and,
// for the burst buffer, scenario over scenario), so a steady-state
// shard attack allocates nothing population-proportional beyond its
// radio-memo entry and, on a shard's second attack, its resident
// closure inputs.
type scratch struct {
	chain    *strategy.ClosureRun
	in       closureIn
	radio    []telecom.SMSSession
	captures []sniffer.Capture
	bursts   *telecom.BurstBuffer

	// Lazy-persona working set. phone is the attribute-derivation
	// scratch buffer (IMSIs); strs is the shard-cycle string arena
	// (per-shard IMSIs — reset at each shard's start, after release has
	// cleared the rig caches that saw the previous shard's carves).
	phone []byte
	strs  slab.Slab[byte]
}

func newScratch(p *attackPlan) *scratch {
	return &scratch{
		chain:  p.closure.NewRun(),
		bursts: telecom.AcquireBurstBuffer(),
	}
}

// release returns the scratch's pooled resources; the scratch must not
// be used afterwards.
func (s *scratch) release() {
	s.bursts.Release()
	s.bursts = nil
}

// chainDepths runs the per-victim chain-reaction closure: it enrolls
// the accounts of the victim's enrolled services and solves the
// strategy closure with the attacker's factors (baseline + leak
// dossier, in know) — the fixpoint strategy.PathLayers runs over the
// whole ecosystem, restricted to this victim's footprint. On return
// chain holds the victim's accounts and their depths; the caller must
// call chain.Reset() when done.
func (p *attackPlan) chainDepths(chain *strategy.ClosureRun, enrolled []uint64, know uint64) {
	for w, word := range enrolled {
		for word != 0 {
			j := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if j >= len(p.svcAccounts) {
				break
			}
			for _, a := range p.svcAccounts[j] {
				chain.Enroll(a)
			}
		}
	}
	chain.Solve(know)
}
