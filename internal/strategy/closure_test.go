package strategy

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/tdg"
)

// phishable lists the factor kinds an attacker's known-factor mask may
// carry beyond the baseline: everything harvested information or a
// leak dossier can supply.
func phishable() []ecosys.FactorKind {
	var out []ecosys.FactorKind
	for _, f := range ecosys.AllFactorKinds() {
		if !f.Unphishable() {
			out = append(out, f)
		}
	}
	return out
}

// laneCase is one victim of the oracle: the accounts it enrolls and
// the factors it knows beyond the baseline.
type laneCase struct {
	enrolled []bool
	extra    []ecosys.FactorKind
}

// know returns k's known-factor mask under c.
func (k laneCase) know(c *Closure) uint64 {
	know := c.Baseline()
	for _, f := range k.extra {
		know |= FactorBit(f)
	}
	return know
}

// oracleCase runs the scalar reference run on c, the closure compiled
// from all of nodes under the baseline attacker, with only the
// accounts of k and its extra known factors, and the map-keyed
// reference on tdg.Build of just those nodes under a profile holding
// the extra factors. It returns the deepest finite depth seen.
func oracleCase(t *testing.T, nodes []tdg.Node, c *Closure, k laneCase) int {
	t.Helper()
	ap := ecosys.BaselineAttacker()
	var sub []tdg.Node
	for i := range nodes {
		if k.enrolled[i] {
			sub = append(sub, nodes[i])
		}
	}
	for _, f := range k.extra {
		ap.Capabilities[f] = true
	}
	gs, err := tdg.Build(sub, ap)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceDepths(gs)

	r := c.NewRun()
	for i := range nodes {
		if k.enrolled[i] {
			r.Enroll(int32(i))
		}
	}
	r.Solve(k.know(c))
	deepest := 0
	for i, n := range nodes {
		got := int(r.Depth(int32(i)))
		if !k.enrolled[i] {
			if got != 0 {
				t.Fatalf("%s not enrolled but depth %d", n.ID, got)
			}
			continue
		}
		if got == 0 {
			got = Unreachable
		}
		if got != want[n.ID] {
			t.Fatalf("%s: closure depth %d, reference %d (enrolled %v, extra %v)",
				n.ID, got, want[n.ID], k.enrolled, k.extra)
		}
		if got != Unreachable && got > deepest {
			deepest = got
		}
	}
	r.Reset()
	if len(r.active) != 0 || !slices.Equal(r.depth, make([]int32, len(c.pathStart)-1)) {
		t.Fatal("Reset left state behind")
	}
	return deepest
}

// lane returns the lane word of lane i alone.
func lane(i int) *Word {
	var w Word
	w[i>>6] = 1 << (i & 63)
	return &w
}

// checkLanes runs cases as the lanes of one block on l — lane i is
// cases[i] — and holds every lane's account depths and path depths
// equal to the scalar reference run on that case alone. No account may
// fall twice in a lane, or at all in a lane that does not enroll it,
// and Reset must leave l empty for the next block.
func checkLanes(t *testing.T, c *Closure, l *Lanes, cases []laneCase) {
	t.Helper()
	for i, k := range cases {
		for a, on := range k.enrolled {
			if on {
				l.Enroll(int32(a), lane(i))
			}
		}
		l.Know(k.know(c), lane(i))
	}
	l.Solve()
	depth := make([][]int32, len(cases))
	for i, k := range cases {
		depth[i] = make([]int32, len(k.enrolled))
	}
	for _, f := range l.Falls() {
		for w, m := range f.Lanes {
			for ; m != 0; m &= m - 1 {
				i := 64*w + bits.TrailingZeros64(m)
				if i >= len(cases) {
					t.Fatalf("account %d fell in lanes %#x of a %d-lane block", f.Account, f.Lanes, len(cases))
				}
				if depth[i][f.Account] != 0 {
					t.Fatalf("lane %d: account %d fell at depths %d and %d", i, f.Account, depth[i][f.Account], f.Depth)
				}
				depth[i][f.Account] = f.Depth
			}
		}
	}
	r := c.NewRun()
	for i, k := range cases {
		for a, on := range k.enrolled {
			if on {
				r.Enroll(int32(a))
			}
		}
		r.Solve(k.know(c))
		for a := range k.enrolled {
			if got, want := depth[i][a], r.Depth(int32(a)); got != want {
				t.Fatalf("lane %d of %d: account %d depth %d, scalar reference %d (enrolled %v, extra %v)",
					i, len(cases), a, got, want, k.enrolled, k.extra)
			}
		}
		for p := range c.pathID {
			if got, want := l.pathDepth(int32(p), uint(i)), r.pathDepth(int32(p)); got != want {
				t.Fatalf("lane %d of %d: path %d depth %d, scalar reference %d", i, len(cases), p, got, want)
			}
		}
		r.Reset()
	}
	l.Reset()
	if len(l.active) != 0 || len(l.Falls()) != 0 || len(l.layers) != c.needs ||
		slices.ContainsFunc(l.enrolled, nonzero) || slices.ContainsFunc(l.fallen, nonzero) || slices.ContainsFunc(l.layers, nonzero) {
		t.Fatal("Lanes.Reset left state behind")
	}
}

func nonzero(w Word) bool { return w != Word{} }

// CheckPathClasses compiles g and holds its path classes to their
// definition: two accounts share a class exactly when their compiled
// paths' need lists are equal in order, class −1 means no compiled
// path, and each class's representative is its first account. It then
// enrolls every account in every lane and checks that no account
// without a compiled path falls. It returns the number of classes and
// of accounts without a compiled path.
func CheckPathClasses(g *tdg.Graph) (classes, pathless int, err error) {
	c := CompileClosure(g)
	ids := g.Nodes()
	needLists := func(a int) [][]int32 {
		var out [][]int32
		for p := c.pathStart[a]; p < c.pathStart[a+1]; p++ {
			out = append(out, c.pathNeeds.of(int(p)))
		}
		return out
	}
	for a := range ids {
		cls, la := c.pathClass[a], needLists(a)
		if (cls < 0) != (len(la) == 0) {
			return 0, 0, fmt.Errorf("%s: class %d with %d compiled paths", ids[a], cls, len(la))
		}
		if cls < 0 {
			pathless++
			continue
		}
		if int(cls) >= len(c.classRep) || c.classRep[cls] > int32(a) {
			return 0, 0, fmt.Errorf("%s: class %d of %d, its first account %d", ids[a], cls, len(c.classRep), c.classRep[cls])
		}
		for b := range a {
			if same := c.pathClass[b] == cls; same != reflect.DeepEqual(needLists(b), la) {
				return 0, 0, fmt.Errorf("%s and %s: need lists %v and %v, classes %d and %d",
					ids[b], ids[a], needLists(b), la, c.pathClass[b], cls)
			}
		}
	}
	for k, rep := range c.classRep {
		if c.pathClass[rep] != int32(k) {
			return 0, 0, fmt.Errorf("class %d: representative %s is in class %d", k, ids[rep], c.pathClass[rep])
		}
	}
	all := &Word{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	l := c.NewLanes()
	for a := range ids {
		l.Enroll(int32(a), all)
	}
	l.Know(c.Baseline(), all)
	l.Solve()
	for _, f := range l.Falls() {
		if c.pathClass[f.Account] < 0 {
			return 0, 0, fmt.Errorf("%s has no compiled path but fell at depth %d", ids[f.Account], f.Depth)
		}
	}
	return len(c.classRep), pathless, nil
}

// RandomGraph is randomGraph, for the external tests.
func RandomGraph(seed int64, size int) (*tdg.Graph, error) { return randomGraph(seed, size) }

// TestClosureMatchesReference is the oracle: on random ecosystems the
// scalar reference run agrees with the map-keyed reference fixpoint,
// account by account, in four kinds of case — every account enrolled;
// a random enrolled subset against the reference on a graph of just
// that subset (the campaign's per-victim contract); random extra
// known factors against the reference with them in the profile; and a
// subset with extra factors together (a victim with a leak dossier).
// Those four cases and 252 more random victims, each with its own
// footprint and extra factors, then run as the lanes of blocks of 1,
// 63, 64, 65, 255 and 256 lanes, and of 256 identical lanes, where
// every lane must match the scalar run of its case. The wide
// ecosystems intern more needs than one mask word holds.
func TestClosureMatchesReference(t *testing.T) {
	const seeds = 300
	deepest := 0
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		nodes := randomNodes(seed, 2+r.Intn(30))
		deepest = max(deepest, checkClosure(t, r, nodes).deepest)
	}
	if deepest < 3 {
		t.Fatalf("deepest chain over the random cases is %d; the oracle never exercised depth 3", deepest)
	}
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		if got := checkClosure(t, r, wideNodes(seed, 70+r.Intn(40))); got.words < 2 {
			t.Fatalf("wide seed %d: masks span %d word(s); the case never left the first word", seed, got.words)
		}
	}
}

// closureCheck is what checkClosure saw: the deepest finite depth and
// the scalar reference's mask width in words.
type closureCheck struct{ deepest, words int }

// checkClosure compiles nodes under the baseline attacker and runs the
// oracle's four kinds of case, drawing subsets and extra factors from
// r, then the lane blocks, then checks DepthStats against the
// reference.
func checkClosure(t *testing.T, r *rand.Rand, nodes []tdg.Node) closureCheck {
	t.Helper()
	kinds := phishable()
	g, err := tdg.Build(nodes, ecosys.BaselineAttacker())
	if err != nil {
		t.Fatal(err)
	}
	c := CompileClosure(g)
	all := make([]bool, len(nodes))
	for i := range all {
		all[i] = true
	}
	subset := func() []bool {
		out := make([]bool, len(nodes))
		for i := range out {
			out[i] = r.Intn(3) != 0
		}
		return out
	}
	extra := func() []ecosys.FactorKind {
		out := make([]ecosys.FactorKind, 1+r.Intn(3))
		for i := range out {
			out[i] = kinds[r.Intn(len(kinds))]
		}
		return out
	}
	got := closureCheck{words: c.NewRun().words}
	cases := []laneCase{
		{all, nil},
		{subset(), nil},
		{all, extra()},
		{subset(), extra()},
	}
	for _, k := range cases {
		got.deepest = max(got.deepest, oracleCase(t, nodes, c, k))
	}
	for len(cases) < BlockLanes {
		k := laneCase{enrolled: all}
		if r.Intn(4) != 0 {
			k.enrolled = subset()
		}
		if r.Intn(3) != 0 {
			k.extra = extra()
		}
		cases = append(cases, k)
	}
	l := c.NewLanes()
	for _, block := range [][]laneCase{cases[:1], cases[:63], cases[:64], cases[:65], cases[:255], cases, slices.Repeat(cases[3:4], BlockLanes)} {
		checkLanes(t, c, l, block)
	}
	if st, want := Solve(g).DepthStats(), ReferenceDepthStats(g); st != want {
		t.Fatalf("%d accounts: DepthStats %+v, reference %+v", len(nodes), st, want)
	}
	return got
}

// FuzzClosureLanes decodes arbitrary bytes into one block of lanes
// over a random ecosystem and holds every lane to the scalar reference
// run through checkLanes. seed draws the ecosystem: randomNodes of
// 2–41 accounts, or, when size has its top bit set, wideNodes of
// 65–104 accounts, whose needs span two mask words. Each further
// record of data is one victim, little-endian: its known-factor mask
// word, then one enrollment word per 64 accounts (bit a enrolls
// account a). Up to BlockLanes whole records are read; a partial one
// is dropped. Record r takes lane 64(r mod 4) + r/4, so four records
// already reach every word of the block; the lanes between them hold
// victims enrolled in nothing.
func FuzzClosureLanes(f *testing.F) {
	f.Add(int64(1), uint8(10), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0, 0, 0, 0, 0})
	f.Add(int64(7), uint8(25), []byte{
		0x80, 0, 0, 0, 0, 0, 0, 0, 0x5a, 0xa5, 0x3c, 0, 0, 0, 0, 0,
		0, 0x01, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(3), uint8(0x85), []byte{
		0x80, 0x01, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0, 0, 0, 0, 0, 0, 0, 0, 0x0f, 0xf0, 0x0f, 0xf0, 0x0f, 0xf0, 0x0f, 0xf0, 0x33, 0x33, 0x33, 0x33, 0x33, 0, 0, 0})
	f.Add(int64(11), uint8(30), []byte{
		0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0,
		0x10, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x0f, 0xf0, 0x0f, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0x55, 0x55, 0x55, 0x55, 0, 0, 0, 0,
		0x80, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0, 0, 0xaa, 0xaa, 0xaa, 0xaa, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, size uint8, data []byte) {
		nodes := randomNodes(seed, 2+int(size)%40)
		if size&0x80 != 0 {
			nodes = wideNodes(seed, 65+int(size&0x7f)%40)
		}
		g, err := tdg.Build(nodes, ecosys.BaselineAttacker())
		if err != nil {
			t.Fatal(err)
		}
		c := CompileClosure(g)
		record := 8 * (1 + (len(nodes)+63)/64)
		var cases []laneCase
		for r := 0; len(data) >= record && r < BlockLanes; r, data = r+1, data[record:] {
			i := 64*(r%4) + r/4
			for len(cases) <= i {
				cases = append(cases, laneCase{enrolled: make([]bool, len(nodes))})
			}
			k := &cases[i]
			for know := binary.LittleEndian.Uint64(data); know != 0; know &= know - 1 {
				k.extra = append(k.extra, ecosys.FactorKind(bits.TrailingZeros64(know)))
			}
			for a := range k.enrolled {
				k.enrolled[a] = binary.LittleEndian.Uint64(data[8+8*(a>>6):])>>(a&63)&1 == 1
			}
		}
		if len(cases) > 0 {
			checkLanes(t, c, c.NewLanes(), cases)
		}
	})
}

// wideNodes is randomNodes where every account also shows the real
// name and has one more sign-in path needing it beside a random
// factor. An account never supplies itself, so each account's
// real-name need has its own supplier set — every other account — and
// the closure interns at least size needs: past 64, its masks span
// more than one word.
func wideNodes(seed int64, size int) []tdg.Node {
	nodes := randomNodes(seed, size)
	r := rand.New(rand.NewSource(^seed))
	pool := []ecosys.FactorKind{ecosys.FactorSMSCode, ecosys.FactorPassword, ecosys.FactorCitizenID, ecosys.FactorAddress}
	for i := range nodes {
		nodes[i].Exposes.Add(ecosys.InfoRealName)
		nodes[i].Paths = append(nodes[i].Paths, ecosys.AuthPath{
			ID:      "wide",
			Purpose: ecosys.PurposeSignIn,
			Factors: []ecosys.FactorKind{ecosys.FactorRealName, pool[r.Intn(len(pool))]},
		})
	}
	return nodes
}

// BenchmarkChainDepths measures the per-victim chain-reaction closure
// on the default catalog (both platforms), over 256 seeded footprints,
// each service enrolled with probability 1/4 and every account of an
// enrolled service in the footprint. The closure row is the lane engine
// the campaign runs: one op is one 256-lane block of those footprints
// (enroll, know, solve, reset), reported per victim as ns/victim. As
// the campaign enrolls each service word once per block, the row
// enrolls each account once, with the lanes of the victims holding it,
// ORed before the timer starts. The reference row is the map-keyed
// fixpoint over each footprint's prebuilt graph, one op per victim, so
// neither row pays a graph build.
func BenchmarkChainDepths(b *testing.B) {
	cat, err := dataset.Default()
	if err != nil {
		b.Fatal(err)
	}
	nodes := tdg.NodesFromCatalog(cat)
	g, err := tdg.Build(nodes, ecosys.BaselineAttacker())
	if err != nil {
		b.Fatal(err)
	}
	c := CompileClosure(g)
	r := rand.New(rand.NewSource(1))
	const victims = BlockLanes
	footprints := make([][]int32, victims)
	graphs := make([]*tdg.Graph, victims)
	for v := range footprints {
		enrolled := make(map[string]bool)
		for _, svc := range cat.Services() {
			enrolled[svc.Name] = r.Intn(4) == 0
		}
		var sub []tdg.Node
		for i, n := range nodes {
			if enrolled[n.ID.Service] {
				footprints[v] = append(footprints[v], int32(i))
				sub = append(sub, n)
			}
		}
		if graphs[v], err = tdg.Build(sub, ecosys.BaselineAttacker()); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("engine=closure", func(b *testing.B) {
		l := c.NewLanes()
		all := &Word{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		holders := make([]Word, g.Len()) // per account: the lanes enrolling it
		for v, fp := range footprints {
			for _, a := range fp {
				holders[a].Or(lane(v))
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for a := range holders {
				if holders[a] != (Word{}) {
					l.Enroll(int32(a), &holders[a])
				}
			}
			l.Know(c.Baseline(), all)
			l.Solve()
			l.Reset()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(victims*b.N), "ns/victim")
	})
	b.Run("engine=reference", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ReferenceDepths(graphs[i%victims])
		}
	})
}

// TestForwardClosureMatchesReference holds ForwardClosure, built on
// the compiled closure, equal to the map-keyed reference rounds — every
// account's round and path, the rounds in order, the
// survivors and the harvested information — on random ecosystems under
// varied attacker profiles and couple sizes, and on the default catalog
// per platform, each from scratch and from random initial sets.
func TestForwardClosureMatchesReference(t *testing.T) {
	check := func(g *tdg.Graph, initial []ecosys.AccountID, label string) {
		t.Helper()
		want, err := referenceForwardClosure(g, initial)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ForwardClosure(g, initial)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (initial %v):\ngot  %+v\nwant %+v", label, initial, got, want)
		}
	}
	randomInitial := func(r *rand.Rand, g *tdg.Graph, oneIn int) []ecosys.AccountID {
		var out []ecosys.AccountID
		for _, id := range g.Nodes() {
			if r.Intn(oneIn) == 0 {
				out = append(out, id)
			}
		}
		return out
	}
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		ap := ecosys.BaselineAttacker()
		if r.Intn(3) == 0 {
			ap.Capabilities[ecosys.FactorPassword] = true
		}
		if r.Intn(4) == 0 {
			ap.KnownInfo.Add(ecosys.InfoRealName)
		}
		g, err := tdg.Build(randomNodes(seed, 2+r.Intn(40)), ap, tdg.WithMaxCoupleSize(2+r.Intn(2)))
		if err != nil {
			t.Fatal(err)
		}
		check(g, nil, fmt.Sprintf("seed %d", seed))
		check(g, randomInitial(r, g, 6), fmt.Sprintf("seed %d with initial accounts", seed))
	}
	cat, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for _, platforms := range [][]ecosys.Platform{nil, {ecosys.PlatformWeb}, {ecosys.PlatformMobile}} {
		g, err := tdg.Build(tdg.NodesFromCatalog(cat, platforms...), ecosys.BaselineAttacker())
		if err != nil {
			t.Fatal(err)
		}
		check(g, nil, fmt.Sprintf("catalog %v", platforms))
		for k := 0; k < 10; k++ {
			check(g, randomInitial(r, g, 30), fmt.Sprintf("catalog %v with initial accounts", platforms))
		}
	}
}
