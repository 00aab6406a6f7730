package campaign

import (
	"fmt"
	"math/bits"
	"sync"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/sniffer"
	"github.com/actfort/actfort/internal/strategy"
	"github.com/actfort/actfort/internal/tdg"
	"github.com/actfort/actfort/internal/telecom"
)

// attackPlan is the campaign's precompiled view of the ecosystem: the
// Transformation Dependency Graph compiled into strategy's
// chain-reaction closure, plus the campaign's own per-account tables,
// so a block of 64 victims costs a few sweeps over need words instead
// of a graph build each. It is computed once per campaign and shared
// read-only by every worker.
type attackPlan struct {
	closure *strategy.Closure
	// svcIdx maps an account (closure index) to its catalog service
	// index (the same order population.ServiceSet uses).
	svcIdx []int
	// svcAccounts inverts svcIdx: per service, its account indices.
	svcAccounts [][]int32
	// Accounts exposing the same post-login information share an
	// exposure class: exposeClass is per account, exposes per class the
	// information bitmask (1 << InfoField).
	exposeClass []int32
	exposes     []uint32
	// lanes pools the closure's lane blocks, reset, across the runs
	// that share this plan, so a short run does not rebuild its
	// workers' lane state.
	lanes sync.Pool
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
		exposeClass: make([]int32, 0, len(nodes)),
	}
	p.lanes.New = func() any { return p.closure.NewLanes() }
	classes := make(map[uint32]int32)
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
		cls, ok := classes[mask]
		if !ok {
			cls = int32(len(p.exposes))
			classes[mask] = cls
			p.exposes = append(p.exposes, mask)
		}
		p.exposeClass = append(p.exposeClass, cls)
	}
	return p, nil
}

// scratch is one worker's reusable state: the chain-reaction lane
// block, pooled by the plan, the closure inputs of the intercepted
// victims of the shard it last generated, the per-shard radio session
// buffer the gather-then-encrypt path fills before the batch encryptor
// runs, the rig's captures read back per shard, and the pooled burst
// buffer the encoded trace lives in. All of it is recycled shard over
// shard (and, for the lane block and the burst buffer, scenario over
// scenario), so a steady-state
// shard attack allocates nothing population-proportional beyond its
// radio-memo entry and, on a shard's second attack, its resident
// closure inputs.
type scratch struct {
	plan     *attackPlan
	lanes    *strategy.Lanes
	blk      block
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
		plan:   p,
		lanes:  p.lanes.Get().(*strategy.Lanes),
		blk:    block{exposed: make([]uint64, len(p.exposes))},
		bursts: telecom.AcquireBurstBuffer(),
	}
}

// release returns the scratch's pooled resources; the scratch must not
// be used afterwards.
func (s *scratch) release() {
	s.bursts.Release()
	s.bursts = nil
	s.plan.lanes.Put(s.lanes)
	s.lanes = nil
}

// block is up to 64 intercepted victims of one shard gathered for one
// lane-engine pass: lane l is the victim in row rows[l] of the shard's
// closure inputs.
type block struct {
	rows [64]int32
	n    int
	// exposed is per exposure class: the lanes where one of its
	// accounts fell.
	exposed []uint64
	// t is the transpose buffer: victims' enrollment words in,
	// per-service lane words out; per-field lane words in, per-lane
	// field words out.
	t [64]uint64
}

// solveBlock runs the chain-reaction closure for the victims gathered
// in b, whose leak-dossier factors the caller has already made known
// in their lanes, folds the outcome into part and empties b and lanes
// for the next block. Each victim's accounts are those of its enrolled
// services and its attacker knows the baseline factors beside its
// dossier's — the fixpoint strategy.PathLayers runs over the whole
// ecosystem, restricted to each victim's footprint. It returns the
// number of layers the closure evaluated.
func (p *attackPlan) solveBlock(lanes *strategy.Lanes, b *block, in *closureIn, part *Summary) int {
	lanes.Know(p.closure.Baseline(), ^uint64(0)>>(64-b.n))
	for w := 0; w < in.words; w++ {
		for l, row := range b.rows[:b.n] {
			b.t[l] = in.enrolled[int(row)*in.words+w]
		}
		clear(b.t[b.n:])
		transpose64(&b.t)
		for k, on := range b.t[:min(64, len(p.svcAccounts)-w<<6)] {
			if on != 0 {
				for _, a := range p.svcAccounts[w<<6|k] {
					lanes.Enroll(a, on)
				}
			}
		}
	}
	layers := lanes.Solve()
	p.accumulate(lanes.Falls(), b, part)
	lanes.Reset()
	b.n = 0
	return layers
}

// accumulate folds the falls of block b's closure into the partial
// summary: per-depth and per-service takeovers are popcounts of the
// fall records; a victim's deepest chain is the deepest layer with a
// fall in its lane; its harvested fields, gathered per exposure class
// into one lane word per field and transposed back to one field word
// per lane, give the harvest histogram.
func (p *attackPlan) accumulate(falls []strategy.Fall, b *block, part *Summary) {
	var fellAt [MaxDepth + 1]uint64
	for _, f := range falls {
		n := int64(bits.OnesCount64(f.Lanes))
		d := min(int(f.Depth), MaxDepth)
		part.AccountsByDepth[d] += n
		part.ServiceTakeovers[p.svcIdx[f.Account]] += n
		part.AccountsCompromised += n
		fellAt[d] |= f.Lanes
		b.exposed[p.exposeClass[f.Account]] |= f.Lanes
	}
	clear(b.t[:])
	for cls, lanes := range b.exposed {
		for x := p.exposes[cls]; x != 0 && lanes != 0; x &= x - 1 {
			b.t[bits.TrailingZeros32(x)] |= lanes
		}
		b.exposed[cls] = 0
	}
	var seen uint64
	for d := MaxDepth; d > 0; d-- {
		deepest := fellAt[d] &^ seen
		part.VictimsByMaxDepth[d] += int64(bits.OnesCount64(deepest))
		seen |= deepest
	}
	part.VictimsCompromised += int64(bits.OnesCount64(seen))
	for f := 1; f < len(part.FieldTotals); f++ {
		part.FieldTotals[f] += int64(bits.OnesCount64(b.t[f]))
	}
	transpose64(&b.t)
	for _, fields := range b.t[:b.n] {
		part.HarvestHist[min(bits.OnesCount64(fields), len(part.HarvestHist)-1)]++
	}
}

// transpose64 transposes a 64×64 bit matrix in place: bit c of a[r]
// moves to bit r of a[c] (Hacker's Delight §7-3, least significant bit
// first). The last two swap stages run on four words at a time in
// registers.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j > 2; j >>= 1 {
		for k := 0; k < 64; k += 2 * j {
			lo, hi := a[k:k+j], a[k+j:k+2*j]
			hi = hi[:len(lo)]
			for i, x := range lo {
				t := (x>>j ^ hi[i]) & m
				hi[i] ^= t
				lo[i] = x ^ t<<j
			}
		}
		m ^= m << (j >> 1)
	}
	for i := 0; i < 64; i += 4 {
		x0, x1, x2, x3 := a[i], a[i+1], a[i+2], a[i+3]
		t0 := (x0>>2 ^ x2) & 0x3333333333333333
		t1 := (x1>>2 ^ x3) & 0x3333333333333333
		x0, x1, x2, x3 = x0^t0<<2, x1^t1<<2, x2^t0, x3^t1
		t0 = (x0>>1 ^ x1) & 0x5555555555555555
		t1 = (x2>>1 ^ x3) & 0x5555555555555555
		a[i], a[i+1], a[i+2], a[i+3] = x0^t0<<1, x1^t0, x2^t1<<1, x3^t1
	}
}
