package strategy

import (
	"math/rand"
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
	if len(r.Active()) != 0 || !slices.Equal(r.depth, make([]int32, len(c.paths))) {
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
func TestClosureMatchesReference(t *testing.T) {
	const seeds = 300
	kinds := phishable()
	deepest := 0
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		nodes := randomNodes(seed, 2+r.Intn(30))
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
		for _, k := range []struct {
			enrolled []bool
			extra    []ecosys.FactorKind
		}{
			{all, nil},
			{subset(), nil},
			{all, extra()},
			{subset(), extra()},
		} {
			deepest = max(deepest, oracleCase(t, nodes, c, k.enrolled, k.extra))
		}
		if got, want := PathLayers(g), ReferencePathLayers(g); got != want {
			t.Fatalf("seed %d: PathLayers %+v, reference %+v", seed, got, want)
		}
	}
	if deepest < 3 {
		t.Fatalf("deepest chain over the random cases is %d; the oracle never exercised depth 3", deepest)
	}
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
