package campaign

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/population"
	"github.com/actfort/actfort/internal/strategy"
)

// TestTranspose64 holds transpose64 to the bit-by-bit definition, bit c
// of row r to bit r of row c, on random matrices and on the zero,
// all-ones and single-diagonal ones.
func TestTranspose64(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var diag [64]uint64
	for i := range diag {
		diag[i] = 1 << (63 - i)
	}
	ones := [64]uint64{}
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	cases := [][64]uint64{{}, ones, diag}
	for range 100 {
		var m [64]uint64
		for i := range m {
			m[i] = r.Uint64() & r.Uint64() // sparse rows, like enrollment words
		}
		cases = append(cases, m)
	}
	for _, m := range cases {
		var want [64]uint64
		for row, w := range m {
			for col := range 64 {
				want[col] |= (w >> col & 1) << row
			}
		}
		got := m
		transpose64(&got)
		if got != want {
			t.Fatalf("transpose64(%x)\n= %x\nwant %x", m, got, want)
		}
	}
}

// TestCompress holds compress to the bit-by-bit definition, bit j of
// the result being x's bit at the j-th set bit of m, and to keeping
// exactly the non-zero results in order, on the zero and all-ones
// masks, every single bit, the alternating masks and random ones.
func TestCompress(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	masks := []uint64{0, ^uint64(0), 0x5555555555555555, 0xAAAAAAAAAAAAAAAA}
	for b := range 64 {
		masks = append(masks, 1<<b)
	}
	for range 100 {
		masks = append(masks, r.Uint64()&r.Uint64()|r.Uint64()&r.Uint64())
	}
	xs := []uint64{0, ^uint64(0)}
	for range 20 {
		xs = append(xs, r.Uint64())
	}
	idx := make([]uint16, len(xs))
	for k := range idx {
		idx[k] = uint16(k)
	}
	for _, m := range masks {
		c := newCompressor(m)
		gotIdx, got := c.compress(make([]uint16, len(xs)), make([]uint64, len(xs)), idx, xs)
		var wantIdx []uint16
		var want []uint64
		for k, x := range xs {
			var w uint64
			for b, j := 0, 0; b < 64; b++ {
				if m>>b&1 == 1 {
					w |= (x >> b & 1) << j
					j++
				}
			}
			if w != 0 {
				wantIdx, want = append(wantIdx, uint16(k)), append(want, w)
			}
		}
		if !slices.Equal(gotIdx, wantIdx) || !slices.Equal(got, want) {
			t.Fatalf("compress(%#x, mask %#x) = %#x at %d, want %#x at %d", xs, m, got, gotIdx, want, wantIdx)
		}
	}
}

// dossierFactors maps a victim's leak dossier to the credential factors
// it gives the attacker, field by field.
func dossierFactors(d population.Dossier) uint64 {
	var m uint64
	if d&population.DossierRealName != 0 {
		m |= strategy.FactorBit(ecosys.FactorRealName)
	}
	if d&population.DossierAddress != 0 {
		m |= strategy.FactorBit(ecosys.FactorAddress)
	}
	if d&population.DossierCitizenID != 0 {
		m |= strategy.FactorBit(ecosys.FactorCitizenID)
	}
	return m
}

// laneBlock is one lane-engine block as the closure reads it: its
// lanes, per catalog service the lanes enrolled in it, the lanes whose
// dossier was found, per lane the factors its dossier gives, and per
// run member the member's lanes.
type laneBlock struct {
	lanes    strategy.Word
	services []strategy.Word
	found    strategy.Word
	factors  [strategy.BlockLanes]uint64
	members  []strategy.Word
}

// gatherBlocks is the reference for packing: the intercepted victims of
// sh, strategy.BlockLanes per block in shard order, each block's
// enrollment words gathered row by row and transposed tile by tile of
// 64 rows, each victim's dossier drawn, and each member's lanes those
// of the victims its interception words hold — with no members, the
// block's lanes as the lone member's.
func gatherBlocks(pop *population.Population, sh *population.Shard, intercepted []uint64, members [][]uint64) []laneBlock {
	nsvc := len(pop.Services())
	var out []laneBlock
	var rows []int
	flush := func() {
		b := laneBlock{services: make([]strategy.Word, nsvc)}
		for l := range rows {
			b.lanes[l>>6] |= 1 << (l & 63)
		}
		for w := range sh.Subscribers[0].Enrolled {
			for k := 0; 64*k < len(rows); k++ {
				var t [64]uint64
				for l, row := range rows[64*k : min(64*k+64, len(rows))] {
					t[l] = sh.Subscribers[row].Enrolled[w]
				}
				transpose64(&t)
				for j, x := range t[:min(64, nsvc-w*64)] {
					b.services[w*64+j][k] = x
				}
			}
		}
		for l, row := range rows {
			d := pop.Dossier(sh.Subscribers[row].Index)
			if d&population.DossierFound != 0 {
				b.found[l>>6] |= 1 << (l & 63)
			}
			b.factors[l] = dossierFactors(d)
		}
		for _, w := range members {
			var lanes strategy.Word
			for l, row := range rows {
				lanes[l>>6] |= (w[row>>6] >> (row & 63) & 1) << (l & 63)
			}
			b.members = append(b.members, lanes)
		}
		if len(members) == 0 {
			b.members = []strategy.Word{b.lanes}
		}
		out = append(out, b)
		rows = rows[:0]
	}
	for li := range sh.Subscribers {
		if intercepted[li>>6]>>(li&63)&1 == 1 {
			if rows = append(rows, li); len(rows) == strategy.BlockLanes {
				flush()
			}
		}
	}
	if len(rows) > 0 {
		flush()
	}
	return out
}

// packBlocks packs in's blocks for intercepted and members and reads
// each back as a laneBlock.
func packBlocks(pop *population.Population, in *closureIn, intercepted []uint64, members [][]uint64) []laneBlock {
	nsvc := len(pop.Services())
	blk := newBlock(inServices + nsvc)
	var out []laneBlock
	blk.pack(in, intercepted, members, func(words []strategy.Word, lanes *strategy.Word, member []strategy.Word) {
		b := laneBlock{lanes: *lanes, services: slices.Clone(words[inServices:]), found: words[inFound],
			members: slices.Clone(member)}
		for l := range strategy.BlockLanes {
			if words[inBreach][l>>6]>>(l&63)&1 == 1 {
				b.factors[l] |= breachFactors
			}
			if words[inCitizenID][l>>6]>>(l&63)&1 == 1 {
				b.factors[l] |= citizenIDFactors
			}
		}
		out = append(out, b)
	})
	return out
}

// checkPack compares, block by block, the packed blocks of shard sh's
// intercepted victims, from its closure inputs, with the gathered ones:
// alone, and as the union of two members' — the even lanes, and every
// lane but each fourth — so each member's lanes go through compress and
// deposit as entries do.
func checkPack(pop *population.Population, sh *population.Shard, intercepted []uint64) error {
	even, most := make([]uint64, len(intercepted)), make([]uint64, len(intercepted))
	for g, m := range intercepted {
		even[g], most[g] = m&0x5555555555555555, m&^0x1111111111111111
	}
	for _, members := range [][][]uint64{nil, {even, most}} {
		if err := checkPackMembers(pop, sh, intercepted, members); err != nil {
			return fmt.Errorf("%d members: %w", len(members), err)
		}
	}
	return nil
}

// checkPackMembers is checkPack for one member list.
func checkPackMembers(pop *population.Population, sh *population.Shard, intercepted []uint64, members [][]uint64) error {
	want := gatherBlocks(pop, sh, intercepted, members)
	var in closureIn
	in.fill(pop, sh)
	got := packBlocks(pop, &in, intercepted, members)
	if len(got) != len(want) {
		return fmt.Errorf("%d blocks, gathered %d", len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		switch {
		case g.lanes != w.lanes:
			return fmt.Errorf("block %d: lanes %#x, gathered %#x", i, g.lanes, w.lanes)
		case g.found != w.found:
			return fmt.Errorf("block %d: found %#x, gathered %#x", i, g.found, w.found)
		case g.factors != w.factors:
			return fmt.Errorf("block %d: dossier factors %x, gathered %x", i, g.factors, w.factors)
		case !slices.Equal(g.services, w.services):
			return fmt.Errorf("block %d: service words %x, gathered %x", i, g.services, w.services)
		case !slices.Equal(g.members, w.members):
			return fmt.Errorf("block %d: member lanes %#x, gathered %#x", i, g.members, w.members)
		}
	}
	return nil
}

// TestPackMatchesGather checks that packing a shard's lane-major
// closure inputs builds, block by block, the blocks the per-victim
// gather built: the same lanes, service words and dossier words, on
// shards of 1 to 4,096 subscribers (partial last groups included) and
// on empty, full, single-lane and random interceptions. The offset
// cases intercept 1, 10 or 63 victims of the first group and every
// victim after it, so each later group straddles a word boundary
// inside its block or the boundary between two blocks.
func TestPackMatchesGather(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 63, 64, 65, 200, 255, 256, 257, 600, 4096} {
		// The second shard, so subscriber indices are not shard offsets.
		pop, err := population.New(population.Config{Seed: 7, Size: 2 * n, ShardSize: n})
		if err != nil {
			t.Fatal(err)
		}
		sh := pop.Shard(1)
		words := (n + 63) / 64
		set := func(li int, b []uint64) { b[li>>6] |= 1 << (li & 63) }
		cases := map[string][]uint64{"empty": make([]uint64, words)}
		full := make([]uint64, words)
		for li := range n {
			set(li, full)
		}
		cases["full"] = full
		for _, k := range []int{1, 10, 63} {
			if k < n {
				b := make([]uint64, words)
				for li := range n {
					if li < k || li >= 64 {
						set(li, b)
					}
				}
				cases[fmt.Sprintf("offset %d", k)] = b
			}
		}
		for _, li := range []int{0, n / 2, n - 1} {
			one := make([]uint64, words)
			set(li, one)
			cases[fmt.Sprintf("lane %d", li)] = one
		}
		for _, density := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			b := make([]uint64, words)
			for li := range n {
				if r.Float64() < density {
					set(li, b)
				}
			}
			cases[fmt.Sprintf("density %.1f", density)] = b
		}
		for name, intercepted := range cases {
			if err := checkPack(pop, sh, intercepted); err != nil {
				t.Errorf("%d subscribers, %s: %v", n, name, err)
			}
		}
		sh.Release()
	}
}

// FuzzPackShard checks packing against the gather on a 600-subscriber
// shard, which spans three blocks, for any interception, read from the
// fuzzer's bytes.
func FuzzPackShard(f *testing.F) {
	const n = 600
	pop, err := population.New(population.Config{Seed: 7, Size: n, ShardSize: n})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0x55, 0xaa})
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf [(n + 63) / 64 * 8]byte
		copy(buf[:], data)
		intercepted := make([]uint64, (n+63)/64)
		for w := range intercepted {
			intercepted[w] = binary.LittleEndian.Uint64(buf[w*8:])
		}
		intercepted[len(intercepted)-1] &= 1<<(n%64) - 1
		sh := pop.Shard(0)
		defer sh.Release()
		if err := checkPack(pop, sh, intercepted); err != nil {
			t.Fatal(err)
		}
	})
}

// closureLayers pins the closure layers each built-in scenario
// evaluates on the golden engine: the work golden. A change that adds
// closure work without changing any answer moves it while
// TestGoldenSummaries still passes; one that changes the work on
// purpose re-pins it and states the delta.
var closureLayers = map[string]int64{
	"baseline":       120,
	"fortified":      40,
	"a53-mix":        60,
	"harden-email":   120,
	"budget-4of16":   48,
	"fintech-leaked": 60,
}

// TestClosureCounters checks the closure work counters on the golden
// engine for every built-in scenario: one lane per intercepted victim,
// one block per started group of 256 intercepted victims of a shard,
// read back from the radio memo's per-shard interception bits, and the
// pinned layers.
func TestClosureCounters(t *testing.T) {
	eng, err := New(Config{Population: testPop(t, 10000, 1024), Workers: 2, Backend: "table"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range BuiltinScenarios() {
		blocks0, lanes0, layers0 := metClosureBlocks.Value(), metClosureLanes.Value(), metClosureLayers.Value()
		sum := runOn(t, eng, sc)
		blocks, lanes, layers := metClosureBlocks.Value()-blocks0, metClosureLanes.Value()-lanes0, metClosureLayers.Value()-layers0
		norm, err := sc.normalize(0)
		if err != nil {
			t.Fatal(err)
		}
		memo := eng.memo.shards(radioKey{radio: norm.Radio, budget: norm.Budget, segment: norm.Segment},
			eng.cfg.ShardHi-eng.cfg.ShardLo)
		wantBlocks := int64(0)
		for i := range memo.entries {
			n := 0
			for _, w := range memo.entries[i].Load().intercepted {
				n += bits.OnesCount64(w)
			}
			wantBlocks += int64((n + strategy.BlockLanes - 1) / strategy.BlockLanes)
		}
		if lanes != sum.Intercepted {
			t.Errorf("%s: campaign_closure_lanes_total +%d, Summary.Intercepted %d", sc.Name, lanes, sum.Intercepted)
		}
		if blocks != wantBlocks {
			t.Errorf("%s: campaign_closure_blocks_total +%d, want %d (⌈intercepted/256⌉ per shard)", sc.Name, blocks, wantBlocks)
		}
		if want, ok := closureLayers[sc.Name]; !ok || layers != want {
			t.Errorf("%s: campaign_closure_layers_total +%d, pinned %d", sc.Name, layers, want)
		}
	}
}

// TestResidentShardClosureAllocs pins the lane engine's zero
// allocation per block: once a shard's closure inputs are resident and
// the worker's scratch has warmed, attacking the shard again — every
// intercepted victim's chain reaction, 256 lanes at a time — allocates
// nothing, its partial summary reset as the worker does after a fold.
func TestResidentShardClosureAllocs(t *testing.T) {
	eng, err := New(Config{Population: testPop(t, 4096, 1024), Workers: 1, KeyBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Name: "baseline"}
	runOn(t, eng, sc) // the radio stages
	runOn(t, eng, sc) // the memo hits that make the closure inputs resident
	norm, err := sc.normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.plan(norm)
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.newMember(norm, "")
	if err != nil {
		t.Fatal(err)
	}
	r := &run{e: eng, plan: plan, members: []*member{m}}
	rig := eng.checkout(context.Background())
	defer eng.release(rig)
	scr := newScratch(r.plan)
	defer scr.release()
	need := []int{0}
	attack := func() {
		parts, detail := r.attackShard(eng.cfg.ShardLo, need, rig, scr)
		if detail != "resident" {
			t.Fatalf("shard attack detail %q, want resident", detail)
		}
		part := parts[0]
		if part.Intercepted < strategy.BlockLanes {
			t.Fatalf("%d intercepted victims: the shard never fills a block", part.Intercepted)
		}
		part.reset()
	}
	attack() // allocates the run's one partial summary
	if got := testing.AllocsPerRun(10, attack); got != 0 {
		t.Fatalf("a warm resident shard's closure allocates %.1f times per shard, want 0", got)
	}
}

// residentEngine is the warm benchmarks' 100k-subscriber engine: every
// built-in scenario has run twice, so its radio stages are memoized and
// its closure inputs resident. It keeps two runs of a sweep in flight.
func residentEngine(b *testing.B) *Engine {
	b.Helper()
	pop, err := population.New(population.Config{Seed: 42, Size: 100_000})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(Config{Population: pop, SweepParallel: 2})
	if err != nil {
		b.Fatal(err)
	}
	for range 2 { // the radio stages, then the memo hits that make the inputs resident
		for _, sc := range BuiltinScenarios() {
			if _, err := eng.RunScenario(context.Background(), sc); err != nil {
				b.Fatal(err)
			}
		}
	}
	return eng
}

// BenchmarkWarmScenario times one warm run of each built-in scenario on
// a 100k-subscriber engine whose radio stages are memoized and whose
// closure inputs are resident, so each iteration is the chain reaction
// alone: the per-scenario cost of the closure and its plumbing. It also
// reports the resident closure inputs' bytes per subscriber.
func BenchmarkWarmScenario(b *testing.B) {
	eng := residentEngine(b)
	size := eng.cfg.Population.Size()
	for _, sc := range BuiltinScenarios() {
		b.Run(sc.Name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := eng.RunScenario(context.Background(), sc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "victims/s")
			b.ReportMetric(float64(eng.residentBytes.Load())/float64(size), "resident-B/sub")
		})
	}
}

// BenchmarkWarmSweep times one warm sweep of sweep-4x250k's scenario
// list — baseline, fortified, a53-mix and budget-4of16, two runs in
// flight — on BenchmarkWarmScenario's resident engine: two runs, one
// per plan, the baseline plan's solving each block once for its three
// scenarios. victims/s counts every scenario's subscribers.
func BenchmarkWarmSweep(b *testing.B) {
	eng := residentEngine(b)
	var scenarios []Scenario
	for _, name := range []string{"baseline", "fortified", "a53-mix", "budget-4of16"} {
		sc, _ := BuiltinScenario(name)
		scenarios = append(scenarios, sc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := eng.RunSweep(context.Background(), scenarios); err != nil {
			b.Fatal(err)
		}
	}
	victims := float64(eng.cfg.Population.Size()) * float64(len(scenarios))
	b.ReportMetric(victims*float64(b.N)/b.Elapsed().Seconds(), "victims/s")
}
