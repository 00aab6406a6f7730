package a51

import (
	"fmt"
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
// geometry (about 690k chains under 300k endpoints) the live table
// must stay under 10 MB, in a few heap objects per frame, so a
// per-endpoint map or slice cannot come back unnoticed.
func TestTableFootprint(t *testing.T) {
	const maxBytes, maxObjectsPerFrame = 10 << 20, 8
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
	t.Logf("table heap: %.1f MB in %d objects over %d frames", float64(bytes)/(1<<20), objects, frames)
	if bytes > maxBytes {
		t.Errorf("table holds %d heap bytes, want at most %d", bytes, maxBytes)
	}
	if objects > maxObjectsPerFrame*frames {
		t.Errorf("table holds %d heap objects, want at most %d per frame (%d)", objects, maxObjectsPerFrame, maxObjectsPerFrame*frames)
	}
}

// TestChainsAtMatchesBinarySearch holds the interpolated endpoint
// search to a plain binary search over every index of the space: on
// built tables, and on sorted endpoint sets no build produces
// (clustered at either end of the space, a lone endpoint, endpoint 0).
func TestChainsAtMatchesBinarySearch(t *testing.T) {
	check := func(label string, ft *frameTable, n uint64) {
		t.Helper()
		for end := uint64(0); end < n; end++ {
			got := ft.chainsAt(end)
			var want []chainRef
			if i, ok := slices.BinarySearch(ft.ends, uint32(end)); ok {
				want = ft.refs[ft.first[i]:ft.first[i+1]]
			}
			if !slices.Equal(got, want) || (len(want) > 0 && &got[0] != &want[0]) {
				t.Fatalf("%s: chainsAt(%#x) = %v, want %v", label, end, got, want)
			}
		}
	}
	for _, chainLen := range []int{1, 2, 8} {
		table := replayTable(t, KeySpace{Base: 0xC118000000000000, Bits: 10}, FrameRange(3), chainLen)
		for frame, ft := range table.frames {
			check(fmt.Sprintf("chainLen %d frame %d", chainLen, frame), ft, 1<<10)
		}
	}
	// One chain per endpoint: its start is the endpoint's rank.
	flat := func(ends ...uint32) *frameTable {
		ft := &frameTable{ends: ends, first: []uint32{0}}
		for i := range ends {
			ft.refs = append(ft.refs, chainRef{start: uint32(i), length: 1})
			ft.first = append(ft.first, uint32(i+1))
		}
		return ft
	}
	var low, high []uint32
	for i := uint32(0); i < 64; i++ {
		low = append(low, i)
		high = append(high, 1<<12-64+i)
	}
	for label, ft := range map[string]*frameTable{
		"empty":          flat(),
		"zero":           flat(0),
		"lone":           flat(700),
		"clustered low":  flat(append(low, 1<<12-1)...),
		"clustered high": flat(append([]uint32{0}, high...)...),
	} {
		check(label, ft, 1<<12)
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
