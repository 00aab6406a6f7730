package campaign

import (
	"context"
	"math/bits"
	"math/rand"
	"testing"
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

// closureLayers pins the closure layers each built-in scenario
// evaluates on the golden engine: the work golden. A change that adds
// closure work without changing any answer moves it while
// TestGoldenSummaries still passes; one that changes the work on
// purpose re-pins it and states the delta.
var closureLayers = map[string]int64{
	"baseline":       471,
	"fortified":      157,
	"a53-mix":        198,
	"harden-email":   471,
	"budget-4of16":   138,
	"fintech-leaked": 164,
}

// TestClosureCounters checks the closure work counters on the golden
// engine for every built-in scenario: one lane per intercepted victim,
// one block per started group of 64 intercepted victims of a shard,
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
			wantBlocks += int64((n + 63) / 64)
		}
		if lanes != sum.Intercepted {
			t.Errorf("%s: campaign_closure_lanes_total +%d, Summary.Intercepted %d", sc.Name, lanes, sum.Intercepted)
		}
		if blocks != wantBlocks {
			t.Errorf("%s: campaign_closure_blocks_total +%d, want %d (⌈intercepted/64⌉ per shard)", sc.Name, blocks, wantBlocks)
		}
		if want, ok := closureLayers[sc.Name]; !ok || layers != want {
			t.Errorf("%s: campaign_closure_layers_total +%d, pinned %d", sc.Name, layers, want)
		}
	}
}

// TestResidentShardClosureAllocs pins the lane engine's zero
// allocation per block: once a shard's closure inputs are resident and
// the worker's scratch has warmed, attacking the shard again — every
// intercepted victim's chain reaction, 64 lanes at a time — allocates
// nothing, its partial summary recycled as the aggregator does.
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
	r, err := eng.newRun(norm)
	if err != nil {
		t.Fatal(err)
	}
	rig := eng.checkout(context.Background(), r.phases.crack())
	defer eng.release(rig)
	scr := newScratch(r.plan)
	defer scr.release()
	attack := func() {
		part, detail := r.attackShard(eng.cfg.ShardLo, rig, scr)
		if detail != "resident" {
			t.Fatalf("shard attack detail %q, want resident", detail)
		}
		if part.Intercepted < 64 {
			t.Fatalf("%d intercepted victims: the shard never fills a block", part.Intercepted)
		}
		part.reset()
		r.free <- part
	}
	attack() // allocates the run's one partial summary
	if got := testing.AllocsPerRun(10, attack); got != 0 {
		t.Fatalf("a warm resident shard's closure allocates %.1f times per shard, want 0", got)
	}
}
