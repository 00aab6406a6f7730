package strategy

import (
	"fmt"
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

// oracleCase runs c, the closure compiled from all of nodes under the
// baseline attacker, with only the accounts in enrolled and the extra
// known factors, and the reference on tdg.Build of just those nodes
// under a profile holding the extra factors. It returns the deepest
// finite depth seen.
func oracleCase(t *testing.T, nodes []tdg.Node, c *Closure, enrolled []bool, extra []ecosys.FactorKind) int {
	t.Helper()
	ap := ecosys.BaselineAttacker()
	var sub []tdg.Node
	for i := range nodes {
		if enrolled[i] {
			sub = append(sub, nodes[i])
		}
	}
	know := c.Baseline()
	for _, f := range extra {
		ap.Capabilities[f] = true
		know |= FactorBit(f)
	}
	gs, err := tdg.Build(sub, ap)
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceDepths(gs)

	r := c.NewRun()
	for i := range nodes {
		if enrolled[i] {
			r.Enroll(int32(i))
		}
	}
	r.Solve(know)
	deepest := 0
	for i, n := range nodes {
		got := int(r.Depth(int32(i)))
		if !enrolled[i] {
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
				n.ID, got, want[n.ID], enrolled, extra)
		}
		if got != Unreachable && got > deepest {
			deepest = got
		}
	}
	r.Reset()
	if len(r.Active()) != 0 || !slices.Equal(r.depth, make([]int32, len(c.pathStart)-1)) {
		t.Fatal("Reset left state behind")
	}
	return deepest
}

// TestClosureMatchesReference is the oracle: on random ecosystems the
// compiled closure agrees with the map-keyed reference fixpoint,
// account by account, in four kinds of case — every account enrolled;
// a random enrolled subset against the reference on a graph of just
// that subset (the campaign's per-victim contract); random extra
// known factors against the reference with them in the profile; and a
// subset with extra factors together (a victim with a leak dossier).
// The wide ecosystems intern more needs than one mask word holds.
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
// the closure's mask width in words.
type closureCheck struct{ deepest, words int }

// checkClosure compiles nodes under the baseline attacker and runs the
// oracle's four kinds of case, drawing subsets and extra factors from
// r, then checks PathLayers against the reference.
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
	got := closureCheck{words: c.words}
	for _, k := range []struct {
		enrolled []bool
		extra    []ecosys.FactorKind
	}{
		{all, nil},
		{subset(), nil},
		{all, extra()},
		{subset(), extra()},
	} {
		got.deepest = max(got.deepest, oracleCase(t, nodes, c, k.enrolled, k.extra))
	}
	if pl, want := PathLayers(g), ReferencePathLayers(g); pl != want {
		t.Fatalf("%d accounts: PathLayers %+v, reference %+v", len(nodes), pl, want)
	}
	return got
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
// on the default catalog (both platforms): one op is one victim, over 256
// seeded footprints, each service enrolled with probability 1/4 and
// every account of an enrolled service in the footprint. The closure
// row is the compiled engine the campaign runs (enroll, solve, reset);
// the reference row is the map-keyed fixpoint over each footprint's
// prebuilt graph, so neither row pays a graph build.
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
	const victims = 256
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
		run := c.NewRun()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range footprints[i%victims] {
				run.Enroll(a)
			}
			run.Solve(c.Baseline())
			run.Reset()
		}
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
// account's round, path and couple flag, the rounds in order, the
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
