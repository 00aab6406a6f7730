package campaign

import (
	"fmt"
	"math/bits"
	"sync"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/strategy"
	"github.com/actfort/actfort/internal/tdg"
)

// attackPlan is the campaign's precompiled view of the ecosystem: the
// Transformation Dependency Graph compiled into strategy's
// chain-reaction closure, plus the campaign's own per-account tables,
// so a block of 256 victims costs a few sweeps over need words instead
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
	// solvers pools the workers' chain-reaction state, reset, across
	// the runs that share this plan, so a short run does not rebuild it.
	solvers sync.Pool
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
	p.solvers.New = func() any {
		return &solver{
			plan:    p,
			lanes:   p.closure.NewLanes(),
			blk:     newBlock(inServices + len(p.svcAccounts)),
			exposed: make([]strategy.Word, len(p.exposes)),
		}
	}
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

// scratch is one worker's reusable run-side state: the chain-reaction
// solver, pooled by the plan, and the per-shard run state, by member of
// the shard's need list — the run's members that need the shard, their
// parts and radio outcomes, the positions in need whose radio stage ran
// here, and the union of the members' interception words and the words
// themselves. The radio stage's memory is the shard slot's. The worker
// folds its parts into the run and resets them, so a run allocates a
// worker's parts once.
type scratch struct {
	*solver
	need     []int
	parts    []*Summary
	rads     []*radioOut
	ran      []int
	unionBuf []uint64
	words    [][]uint64
}

func newScratch(p *attackPlan) *scratch {
	return &scratch{solver: p.solvers.Get().(*solver)}
}

// release returns the scratch's solver to its plan; the scratch must
// not be used afterwards.
func (s *scratch) release() {
	s.plan.solvers.Put(s.solver)
	s.solver = nil
}

// zeroParts returns n zeroed partial summaries over services catalog
// services, growing the scratch's set on first use.
func (s *scratch) zeroParts(n, services int) []*Summary {
	for len(s.parts) < n {
		s.parts = append(s.parts, newSummary(services))
	}
	return s.parts[:n]
}

// union returns the union of rads' interception words, in the
// scratch's buffer.
func (s *scratch) union(rads []*radioOut) []uint64 {
	u := append(s.unionBuf[:0], rads[0].intercepted...)
	for _, rad := range rads[1:] {
		for g, m := range rad.intercepted {
			u[g] |= m
		}
	}
	s.unionBuf = u
	return u
}

// members returns rads' interception words, in the scratch's buffer.
func (s *scratch) members(rads []*radioOut) [][]uint64 {
	w := s.words[:0]
	for _, rad := range rads {
		w = append(w, rad.intercepted)
	}
	s.words = w
	return w
}

// solver is one worker's chain-reaction state over a plan: the lane
// block, the packer that fills it and the exposure-class words its
// harvest is gathered in.
type solver struct {
	plan  *attackPlan
	lanes *strategy.Lanes
	blk   block
	// exposed is per exposure class: the lanes of the block being
	// solved where one of its accounts fell.
	exposed []strategy.Word
	// byDepth is per member of the block being accumulated: its
	// takeovers by depth.
	byDepth [][MaxDepth + 1]int64
}

// block packs a shard's intercepted victims into lane-engine blocks of
// strategy.BlockLanes, lane l of a block being the block's l-th
// intercepted victim in shard order.
type block struct {
	// cur and nxt are per closureIn entry: the lanes of the block being
	// packed, and those of the next block that the current group spills.
	cur, nxt []strategy.Word
	// idx and words hold a sparse group's non-zero entries compressed
	// to its intercepted lanes.
	idx   []uint16
	words []uint64
	// mcur, mnxt, midx, mout and mwords are the same per member of a
	// run, whose interception words travel as entries 0, 1, … of their
	// own: midx numbers them, mout and mwords hold a group's compressed.
	mcur, mnxt []strategy.Word
	midx, mout []uint16
	mwords     []uint64
	// lanes is the lane mask of the block handed to solve, held here
	// because a local's address passed to solve would escape; with no
	// members it is also the lone member's lanes.
	lanes [1]strategy.Word
}

// newBlock returns a block for closureIn entries [0, entries).
func newBlock(entries int) block {
	return block{
		cur: make([]strategy.Word, entries), nxt: make([]strategy.Word, entries),
		idx: make([]uint16, entries), words: make([]uint64, entries),
	}
}

// fitMembers grows the block's member entries to at least n.
func (b *block) fitMembers(n int) {
	if len(b.mcur) >= n {
		return
	}
	b.mcur, b.mnxt = make([]strategy.Word, n), make([]strategy.Word, n)
	b.midx, b.mout, b.mwords = make([]uint16, n), make([]uint16, n), make([]uint64, n)
	for j := range b.midx {
		b.midx[j] = uint16(j)
	}
}

// pack walks the groups of in that hold intercepted victims and calls
// solve once per block of strategy.BlockLanes of them, then once for
// the partial last block, with the block's entry words (indexed like
// in's entries), its lanes and, per member of members, the member's
// lanes of the block. Each group's entries, masked to its intercepted
// lanes, are compressed to the low end and deposited at the block's
// fill offset. members, when there are several, are the interception
// words of a run's members, each within intercepted; member j's word
// of a group is packed as one more entry, so its lanes of a block are
// the block's lanes where member j intercepted. With no members the
// block's lanes are the lone member's, and solve receives them as its
// one member's lanes. solve must not keep words or the member lanes.
func (b *block) pack(in *closureIn, intercepted []uint64, members [][]uint64, solve func(words []strategy.Word, lanes *strategy.Word, member []strategy.Word)) {
	b.fitMembers(len(members))
	cur, nxt := b.cur, b.nxt
	mcur, mnxt := b.mcur[:len(members)], b.mnxt[:len(members)]
	fill := uint(0)
	for g, m := range intercepted {
		if m == 0 {
			continue
		}
		lo, hi := in.at[g], in.at[g+1]
		idx, words := in.idx[lo:hi], in.lanes[lo:hi]
		midx, mwords := b.midx[:len(members)], b.mwords[:len(members)]
		for j, w := range members {
			mwords[j] = w[g]
		}
		if m != ^uint64(0) { // a full group needs no compress
			c := newCompressor(m)
			idx, words = c.compress(b.idx, b.words, idx, words)
			if len(members) > 0 {
				midx, mwords = c.compress(b.mout, mwords, midx, mwords)
			}
		}
		n := uint(bits.OnesCount64(m))
		deposit(cur, nxt, idx, words, fill, n)
		if len(members) > 0 {
			deposit(mcur, mnxt, midx, mwords, fill, n)
		}
		if fill += n; fill >= strategy.BlockLanes {
			b.lanes[0] = strategy.Word{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
			solve(cur, &b.lanes[0], b.member(mcur))
			clear(cur)
			clear(mcur)
			cur, nxt = nxt, cur
			mcur, mnxt = mnxt, mcur
			fill -= strategy.BlockLanes
		}
	}
	if fill > 0 {
		b.lanes[0] = strategy.Word{}
		for k := range b.lanes[0] {
			if lo := 64 * uint(k); fill > lo {
				b.lanes[0][k] = ^uint64(0) >> (64 - min(fill-lo, 64))
			}
		}
		solve(cur, &b.lanes[0], b.member(mcur))
		clear(cur)
		clear(mcur)
	}
}

// member is the member lanes solve receives for a block: mcur, or with
// no members the block's lanes as the lone member's.
func (b *block) member(mcur []strategy.Word) []strategy.Word {
	if len(mcur) == 0 {
		return b.lanes[:]
	}
	return mcur
}

// deposit ORs words, word j into entry idx[j], into a block at fill
// offset fill, into word fill>>6 at shift fill&63, for a group of n
// lanes: what overflows that word spills into the next one, or past the
// block's last word into nxt's first.
func deposit(cur, nxt []strategy.Word, idx []uint16, words []uint64, fill, n uint) {
	const last = strategy.BlockLanes/64 - 1
	idx = idx[:len(words)]
	k, shift := fill>>6&last, fill&63
	for j, x := range words {
		cur[idx[j]][k] |= x << shift
	}
	if shift+n > 64 {
		spill, sk := cur, k+1
		if k == last {
			spill, sk = nxt, 0
		}
		for j, x := range words {
			spill[idx[j]][sk&last] |= x >> (64 - shift)
		}
	}
}

// compressor holds, for one mask m, the six stage masks of Hacker's
// Delight §7-4 compress.
type compressor struct {
	m     uint64
	stage [6]uint64
}

// newCompressor computes m's stage masks.
func newCompressor(m uint64) compressor {
	c := compressor{m: m}
	mk := ^m << 1 // count the zeros of m to each bit's right
	for i := range c.stage {
		mp := mk ^ mk<<1 // parallel suffix
		mp ^= mp << 2
		mp ^= mp << 4
		mp ^= mp << 8
		mp ^= mp << 16
		mp ^= mp << 32
		mv := mp & m // the bits of m to move
		c.stage[i] = mv
		m = m ^ mv | mv>>(1<<i)
		mk &^= mp
	}
	return c
}

// compress compresses each word xs[k], entry idx[k]: its bits within m
// move to the low end in order, bit j of the result being xs[k]'s bit
// at the j-th set bit of m. It stores the non-zero results, with their
// entries, at the front of dstIdx and dst, which must be as long as xs,
// and returns them. dst may be xs itself: result k is stored after
// xs[k] is read, at an index no greater than k.
func (c *compressor) compress(dstIdx []uint16, dst []uint64, idx []uint16, xs []uint64) ([]uint16, []uint64) {
	m, s0, s1, s2, s3, s4, s5 := c.m, c.stage[0], c.stage[1], c.stage[2], c.stage[3], c.stage[4], c.stage[5]
	dstIdx, dst, idx = dstIdx[:len(xs)], dst[:len(xs)], idx[:len(xs)]
	n := 0
	for k, x := range xs {
		// Each stage moves its bits right into places it has emptied,
		// so clearing and setting them is one xor.
		x &= m
		t := x & s0
		x ^= t ^ t>>1
		t = x & s1
		x ^= t ^ t>>2
		t = x & s2
		x ^= t ^ t>>4
		t = x & s3
		x ^= t ^ t>>8
		t = x & s4
		x ^= t ^ t>>16
		t = x & s5
		x ^= t ^ t>>32
		// Branch-free: about half a sparse group's words miss its
		// lanes, and overwriting costs less than mispredicting them.
		dstIdx[n], dst[n] = idx[k], x
		n += int((x | -x) >> 63)
	}
	return dstIdx[:n], dst[:n]
}

// Known-factor masks of a victim's dossier entries.
var (
	breachFactors    = strategy.FactorBit(ecosys.FactorRealName) | strategy.FactorBit(ecosys.FactorAddress)
	citizenIDFactors = strategy.FactorBit(ecosys.FactorCitizenID)
)

// solveBlock runs the chain-reaction closure for the victims in the
// given lanes of one block, whose entry words are words, and folds the
// outcome into parts, one per member, each through its lanes of member,
// leaving the solver's lanes empty for the next block. Each victim's
// accounts are those of its enrolled services and its attacker knows
// the baseline factors beside its dossier's — the fixpoint
// strategy.Solve runs over the whole ecosystem, restricted to each
// victim's footprint. It returns the number of layers the closure
// evaluated.
func (s *solver) solveBlock(words []strategy.Word, mask *strategy.Word, member []strategy.Word, parts []*Summary) int {
	p, lanes := s.plan, s.lanes
	for j, part := range parts {
		part.Intercepted += int64(member[j].Count())
		part.DossierHits += andCount(&words[inFound], &member[j])
	}
	lanes.Know(p.closure.Baseline(), mask)
	lanes.Know(breachFactors, &words[inBreach])
	lanes.Know(citizenIDFactors, &words[inCitizenID])
	services := words[inServices:]
	for svc := range services {
		if on := &services[svc]; on[0]|on[1]|on[2]|on[3] != 0 {
			for _, a := range p.svcAccounts[svc] {
				lanes.Enroll(a, on)
			}
		}
	}
	layers := lanes.Solve()
	s.accumulate(member, parts)
	lanes.Reset()
	return layers
}

// andCount is the number of lanes set in both a and b.
func andCount(a, b *strategy.Word) int64 {
	return int64(bits.OnesCount64(a[0]&b[0]) + bits.OnesCount64(a[1]&b[1]) +
		bits.OnesCount64(a[2]&b[2]) + bits.OnesCount64(a[3]&b[3]))
}

// accumulate folds the falls of the block just solved into the partial
// summaries, one per member, each through its lanes of member: one pass
// over the falls counts each member's per-depth and per-service
// takeovers as popcounts of the fall records within its lanes, kept in
// locals and added to its part once per block; a victim's deepest chain
// is the deepest layer with a fall in its lane; its harvested fields,
// gathered per exposure class into one lane word per field and summed
// word by word by a bitsliced per-lane counter, give the harvest
// histogram.
func (s *solver) accumulate(member []strategy.Word, parts []*Summary) {
	p := s.plan
	var fellAt [MaxDepth + 1]strategy.Word
	if len(s.byDepth) < len(parts) {
		s.byDepth = make([][MaxDepth + 1]int64, len(parts))
	}
	byDepth := s.byDepth[:len(parts)]
	clear(byDepth)
	falls := s.lanes.Falls()
	for i := range falls {
		f := &falls[i]
		d := min(int(f.Depth), MaxDepth)
		svc := p.svcIdx[f.Account]
		for j, part := range parts {
			if n := andCount(&f.Lanes, &member[j]); n != 0 {
				byDepth[j][d] += n
				part.ServiceTakeovers[svc] += n
			}
		}
		fellAt[d].Or(&f.Lanes)
		s.exposed[p.exposeClass[f.Account]].Or(&f.Lanes)
	}
	for j, part := range parts {
		for d, n := range byDepth[j] {
			part.AccountsByDepth[d] += n
			part.AccountsCompromised += n
		}
	}
	var fields [32]strategy.Word // per InfoField: the lanes that harvested it
	for cls := range s.exposed {
		lanes := &s.exposed[cls]
		if *lanes == (strategy.Word{}) {
			continue
		}
		for x := p.exposes[cls]; x != 0; x &= x - 1 {
			fields[bits.TrailingZeros32(x)].Or(lanes)
		}
		*lanes = strategy.Word{}
	}
	for j, part := range parts {
		tally(part, &member[j], &fellAt, &fields)
	}
}

// tally adds the victims in lanes to part's deepest-chain and harvest
// histograms and field totals, from the block's per-depth fall lanes
// fellAt and per-field harvest lanes fields.
func tally(part *Summary, lanes *strategy.Word, fellAt *[MaxDepth + 1]strategy.Word, fields *[32]strategy.Word) {
	last := len(part.HarvestHist) - 1
	for k, in := range lanes {
		var seen uint64
		for d := MaxDepth; d > 0; d-- {
			deepest := fellAt[d][k] & in &^ seen
			part.VictimsByMaxDepth[d] += int64(bits.OnesCount64(deepest))
			seen |= deepest
		}
		part.VictimsCompromised += int64(bits.OnesCount64(seen))
		// count's bit i, per lane, is bit i of that lane's
		// harvested-field count: each field word is added in by ripple
		// carry.
		var count [5]uint64
		for f := 1; f < len(part.FieldTotals); f++ {
			x := fields[f][k] & in
			part.FieldTotals[f] += int64(bits.OnesCount64(x))
			for i := range count {
				count[i], x = count[i]^x, count[i]&x
			}
		}
		rest := in
		for v := 0; v < last && rest != 0; v++ {
			eq := rest
			for i, c := range count {
				eq &= c ^ (uint64(v>>i&1) - 1) // c where v has bit i, else ^c
			}
			part.HarvestHist[v] += int64(bits.OnesCount64(eq))
			rest &^= eq
		}
		part.HarvestHist[last] += int64(bits.OnesCount64(rest))
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
