package a51

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
)

// campaignTableConfig is the campaign engine's table geometry: 12 bits
// over every paging frame class, chain length 2.
var (
	campaignTableSpace  = KeySpace{Base: 0xC118000000000000, Bits: 12}
	campaignTableConfig = TableConfig{Frames: PagingFrames(), ChainLen: 2}
)

// TestTableFootprint pins the flat table layout: at the campaign
// geometry (about 690k chains over 234 frames of 2,048 distinguished
// points) the live table must stay under 5 MiB, which 8-byte chain
// references would break, and so would an end sentinel on the dense
// index (it rounds each frame's 8 KiB index up to a 9,472-byte size
// class), in a few heap objects per frame, so a per-endpoint map or
// slice cannot come back unnoticed. Bytes, the table's own count, must
// agree with the heap to within 5%.
func TestTableFootprint(t *testing.T) {
	const maxBytes, maxObjectsPerFrame = 5 << 20, 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	table, err := BuildTable(campaignTableSpace, campaignTableConfig)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(table)
	bytes := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	objects := int64(after.HeapObjects) - int64(before.HeapObjects)
	frames := int64(len(table.frames))
	t.Logf("table heap: %.3f MB in %d objects over %d frames; Bytes() = %.3f MB",
		float64(bytes)/(1<<20), objects, frames, float64(table.Bytes())/(1<<20))
	if bytes > maxBytes {
		t.Errorf("table holds %d heap bytes, want at most %d", bytes, maxBytes)
	}
	if objects > maxObjectsPerFrame*frames {
		t.Errorf("table holds %d heap objects, want at most %d per frame (%d)", objects, maxObjectsPerFrame, maxObjectsPerFrame*frames)
	}
	if got := table.Bytes(); math.Abs(float64(got-bytes)) > 0.05*float64(bytes) {
		t.Errorf("Bytes() = %d, heap grew %d: more than 5%% apart", got, bytes)
	}
	if got := metTableBytes.Value(); got != float64(table.Bytes()) {
		t.Errorf("a51_table_bytes = %v, want Bytes() = %d", got, table.Bytes())
	}
}

// savedChains parses a saved table file into the chains it lists per
// frame and endpoint, as (start, length) pairs.
func savedChains(t *testing.T, raw []byte) map[uint32]map[uint64][][2]uint64 {
	t.Helper()
	r := &tableReader{data: raw[16 : len(raw)-4]}
	r.u64() // base
	r.u32() // bits
	r.u64() // chainLen
	out := make(map[uint32]map[uint64][][2]uint64)
	for range r.u32() {
		frame := r.u32()
		ends := make(map[uint64][][2]uint64)
		for range r.u32() {
			end := r.u64()
			for range r.u32() {
				ends[end] = append(ends[end], [2]uint64{r.u64(), uint64(r.u32())})
			}
		}
		for range r.u32() {
			r.u64()
			for range r.u32() {
				r.u64()
			}
		}
		out[frame] = ends
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	return out
}

// TestChainsAtMatchesSave holds the dense endpoint index to the file
// layout over every key index of the space: at a distinguished point,
// chainsAt lists exactly the chains the file lists under it, in order;
// anywhere else, none. It runs on built tables against what Save
// writes, and on the hand-made tiny bodies against the bytes they were
// loaded from.
func TestChainsAtMatchesSave(t *testing.T) {
	check := func(label string, table *Table, raw []byte) {
		t.Helper()
		saved := savedChains(t, raw)
		n, _ := table.space.Size()
		for frame, ft := range table.frames {
			for i := uint64(0); i < n; i++ {
				var got [][2]uint64
				for _, ch := range table.chainsAt(ft, i) {
					got = append(got, [2]uint64{ch.start(table.space.Bits), uint64(ch.length(table.space.Bits))})
				}
				if want := saved[frame][i]; !slices.Equal(got, want) {
					t.Fatalf("%s: frame %d: chainsAt(%#x) = %v, Save lists %v", label, frame, i, got, want)
				}
			}
		}
	}
	for _, chainLen := range []int{1, 2, 8} {
		table := replayTable(t, KeySpace{Base: 0xC118000000000000, Bits: 10}, FrameRange(3), chainLen)
		var buf bytes.Buffer
		if err := table.Save(&buf); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("chainLen %d", chainLen), table, buf.Bytes())
	}
	wide := validTiny()
	wide.ends, wide.fps = []uint64{0, 16, 32}, []uint64{5, 9}
	for _, b := range []tinyBody{validTiny(), wide} {
		raw := seal(b.bytes())
		table, err := LoadTable(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("tiny body with %d endpoints", len(b.ends)), table, raw)
	}
}

// BenchmarkBuildTable times one table build at the campaign geometry,
// the cost campaign.New and campaignd's start-up pay before the first
// crack.
func BenchmarkBuildTable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTable(campaignTableSpace, campaignTableConfig); err != nil {
			b.Fatal(err)
		}
	}
}
