package a51

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// tableFPBits is the keystream-prefix fingerprint width. 40 bits
// matches minSampleBytes, so every sample a Cracker is required to
// accept can be fingerprinted.
const tableFPBits = 40

// defaultChainLen is the default mean distinguished-point chain
// length. Longer chains store fewer (start, length) pairs but deepen
// the merge basins a lookup must replay; 8 keeps worst-case replays
// small while still shrinking the table severalfold versus a direct
// fingerprint→key index. (A total-coverage table cannot reach the
// full ~chainLen× reduction of classic Hellman tables, which buy it
// by abandoning a fraction of the space.)
const defaultChainLen = 8

// TableConfig parameterizes BuildTable.
type TableConfig struct {
	// Frames lists the frame numbers to precompute; nil means
	// PagingFrames(), the COUNT classes paging bursts land on.
	Frames []uint32
	// ChainLen is the target mean distinguished-point chain length
	// (rounded down to a power of two, then halved until the space
	// holds at least 8 chains and a chain packs into 32 bits, which
	// only bites past 64 at 24 bits); 0 means defaultChainLen. Longer
	// chains trade lookup time for memory.
	ChainLen int
}

// chainRef locates one stored chain in 32 bits: the key index it starts
// at in the low Bits bits of a Bits-wide space, and the number of key
// indices it covers before its distinguished endpoint, minus one, above
// them. Chains are at most maxWalk = 4×chainLen long, so the geometry
// must satisfy refFits: BuildTable clamps chainLen to it and LoadTable
// rejects a file that does not.
type chainRef uint32

// packRef packs a chain of length key indices starting at start.
func packRef(start uint64, length, spaceBits int) chainRef {
	return chainRef(start | uint64(length-1)<<spaceBits)
}

// start returns the key index r starts at.
func (r chainRef) start(spaceBits int) uint64 { return uint64(r) & (1<<spaceBits - 1) }

// length returns the number of key indices r covers.
func (r chainRef) length(spaceBits int) int { return int(r>>spaceBits) + 1 }

// refFits reports whether every chain of a spaceBits-wide space, at
// most 4×chainLen long, packs into a chainRef.
func refFits(spaceBits int, chainLen uint64) bool {
	return spaceBits+bits.Len64(4*chainLen-1) <= 32
}

// overflowKey is one overflow entry: key index x, whose fingerprint is
// fp.
type overflowKey struct {
	fp, x uint64
}

// frameTable is the per-frame slice of the trade-off, held in three
// flat arrays rather than per-endpoint lists, so a frame costs a
// handful of heap objects, four bytes per stored chain and four per
// distinguished point of the space.
type frameTable struct {
	// first is the dense endpoint index: one offset per distinguished
	// point, so the chains ending at distinguished point i×chainLen are
	// refs[first[i]:first[i+1]], the last point's running to the end of
	// refs, in build sweep order (dpChains). A total-coverage table ends
	// chains at most of its distinguished points, so the dense index is
	// smaller than a sorted list of endpoints with their offsets. It has
	// no end sentinel: at the campaign geometry, 2,048 offsets fill an
	// 8 KiB size class exactly, and one more would round the allocation
	// up to the next class.
	first []uint32
	refs  []chainRef
	// overflow holds keys on distinguished-point-free cycles, sorted by
	// fingerprint (keys sharing one keep build order), so coverage
	// stays total.
	overflow []overflowKey
}

// chainsAt returns the chains of ft stored at key index end, in the
// order they were built; none unless end is a distinguished point some
// chain ends at.
func (t *Table) chainsAt(ft *frameTable, end uint64) []chainRef {
	if end&(t.chainLen-1) != 0 {
		return nil
	}
	return ft.dpChains(int(end >> bits.TrailingZeros64(t.chainLen)))
}

// dpChains returns the chains ending at distinguished point i.
func (ft *frameTable) dpChains(i int) []chainRef {
	hi := uint32(len(ft.refs))
	if i+1 < len(ft.first) {
		hi = ft.first[i+1]
	}
	return ft.refs[ft.first[i]:hi]
}

// sized returns a zeroed slice of n elements whose capacity spans the
// whole allocation the runtime rounds it up to, so Bytes, which sums
// capacities, counts the heap bytes the slice holds.
func sized[E any](n int) []E { return slices.Grow([]E(nil), n)[:n] }

// overflowAt returns the overflow entries whose fingerprint is fp.
func (ft *frameTable) overflowAt(fp uint64) []overflowKey {
	i, _ := slices.BinarySearchFunc(ft.overflow, fp, func(o overflowKey, fp uint64) int {
		return cmp.Compare(o.fp, fp)
	})
	j := i
	for j < len(ft.overflow) && ft.overflow[j].fp == fp {
		j++
	}
	return ft.overflow[i:j]
}

// Table is the precomputed time–memory trade-off: built once per
// KeySpace, it answers per-message key recovery in O(chain length)
// cipher setups instead of an O(2^Bits) sweep. Chains follow the
// classic distinguished-point construction: the successor of key index
// x is reduce(fingerprint(x)), chains end at indices whose low bits
// are zero, and only (start, length) pairs are stored, packed 32 bits
// to a chain in the flat per-frame arrays of frameTable and indexed by
// distinguished point. Every key in the space is on a
// stored chain or in the overflow index, so lookups for covered frames
// are exact, not probabilistic. Frames outside the
// precomputed window fall back to a bitsliced sweep.
//
// Table is immutable after build and safe for concurrent use.
type Table struct {
	space    KeySpace
	chainLen uint64
	maxWalk  int
	frames   map[uint32]*frameTable
	// scratch is RecoverBatch's free list of replay scratch, the only
	// mutable part of a table.
	scratch scratchList
}

var _ Cracker = (*Table)(nil)

// ErrTableSpaceMismatch reports a RecoverBatch call whose space
// differs from the one the table was built for.
var ErrTableSpaceMismatch = errors.New("a51: table built for a different key space")

// BuildTable precomputes the trade-off for space over cfg.Frames. The
// build costs one fingerprint per (key, frame) pair — the same work an
// exhaustive search pays per message, paid once up front — and uses
// the bitsliced engine 64 keys at a time.
func BuildTable(space KeySpace, cfg TableConfig) (*Table, error) {
	n, ok := space.Size()
	if !ok {
		return nil, ErrSpaceTooLarge
	}
	// The build holds per-worker O(2^Bits) scratch (fingerprints,
	// coverage, in-degrees ≈ 10 bytes/key); 24 bits ≈ 160 MB/worker is
	// the practical ceiling for the in-memory design.
	if space.Bits > 24 {
		return nil, fmt.Errorf("a51: table build supports key spaces up to 24 bits, got %d", space.Bits)
	}
	frames := cfg.Frames
	if len(frames) == 0 {
		frames = PagingFrames()
	}
	chainLen := uint64(cfg.ChainLen)
	if chainLen == 0 {
		chainLen = defaultChainLen
	}
	// Round down to a power of two, keep at least ~8 chains and keep
	// every chain packable into a chainRef.
	for chainLen&(chainLen-1) != 0 {
		chainLen &= chainLen - 1
	}
	for chainLen > 1 && (chainLen > n/8 || !refFits(space.Bits, chainLen)) {
		chainLen >>= 1
	}
	// One build worker per core, each working whole frames.
	workers := runtime.GOMAXPROCS(0)
	if workers > len(frames) {
		workers = len(frames)
	}

	t := &Table{
		space:    space,
		chainLen: chainLen,
		// Stored chains are capped at 4×chainLen: paths that run
		// longer without meeting a distinguished point (P ≈ e^-4) go
		// to the overflow index instead, which bounds both replay cost
		// and the walk below.
		maxWalk: int(4 * chainLen),
		frames:  make(map[uint32]*frameTable, len(frames)),
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	frameCh := make(chan uint32)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := newBuildScratch(n, chainLen, t.maxWalk)
			for frame := range frameCh {
				ft := scratch.buildFrame(space, frame)
				mu.Lock()
				t.frames[frame] = ft
				mu.Unlock()
			}
		}()
	}
	for _, f := range frames {
		frameCh <- f
	}
	close(frameCh)
	wg.Wait()
	metTableBytes.Set(float64(t.Bytes()))
	return t, nil
}

// builtChain is one chain found by the build sweep, with its endpoint.
type builtChain struct {
	end uint32
	ref chainRef
}

// buildScratch is one build worker's O(2^Bits) working memory, reused
// across the frames the worker builds.
type buildScratch struct {
	chainLen uint64
	maxWalk  int
	fps      []uint64 // every key index's fingerprint
	covered  []bool   // key indices already on a stored chain or in the overflow
	indeg    []uint8  // in-degree under the successor map, saturating at 255
	path     []uint64 // the walk in progress
	chains   []builtChain
	// next holds, per distinguished point, the next free slot in the
	// frame's refs.
	next []uint32
}

func newBuildScratch(n, chainLen uint64, maxWalk int) *buildScratch {
	return &buildScratch{
		chainLen: chainLen,
		maxWalk:  maxWalk,
		fps:      make([]uint64, n),
		covered:  make([]bool, n),
		indeg:    make([]uint8, n),
		path:     make([]uint64, 0, maxWalk),
		next:     make([]uint32, n/chainLen),
	}
}

// buildFrame computes one frame's chains. It fills fps with every
// key's fingerprint via the bitsliced engine (fpBatch with the frame
// broadcast to every lane); chain construction is then pure array
// walking, and a stable counting sort on the endpoint lays the chains
// out flat, grouped by endpoint in sweep order.
func (s *buildScratch) buildFrame(space KeySpace, frame uint32) *frameTable {
	fps := s.fps
	n := uint64(len(fps))
	var keys [bsLanes]uint64
	var frames [bsLanes]uint32
	for l := range frames {
		frames[l] = frame
	}
	for base := uint64(0); base < n; base += bsLanes {
		count := uint64(bsLanes)
		if base+count > n {
			count = n - base
		}
		batch := keys[:count]
		for j := range batch {
			batch[j] = space.Key(base + uint64(j))
		}
		fpBatch(batch, frames[:count], fps[base:base+count])
	}

	ft := &frameTable{}
	dpMask := s.chainLen - 1
	covered := s.covered
	clear(covered)
	s.chains = s.chains[:0]
	sweep := func(x uint64) {
		if covered[x] {
			return
		}
		path := s.path[:0]
		cur := x
		stored := false
		for len(path) < s.maxWalk {
			path = append(path, cur)
			next := fps[cur] & (n - 1)
			if next&dpMask == 0 {
				s.chains = append(s.chains, builtChain{
					end: uint32(next),
					ref: packRef(x, len(path), space.Bits),
				})
				stored = true
				break
			}
			cur = next
		}
		if stored {
			for _, p := range path {
				covered[p] = true
			}
		} else {
			// Distinguished-point-free stretch (a cycle dodging every
			// DP): index its members directly so coverage stays total.
			for _, p := range path {
				if !covered[p] {
					ft.overflow = append(ft.overflow, overflowKey{fp: fps[p], x: p})
					covered[p] = true
				}
			}
		}
	}
	// Source-first sweep: chains started at indices no other index
	// maps to are maximal, so they cover the most keys per stored
	// (start, length) pair; the second pass mops up cycle members.
	indeg := s.indeg
	clear(indeg)
	for x := uint64(0); x < n; x++ {
		next := fps[x] & (n - 1)
		if indeg[next] < 255 {
			indeg[next]++
		}
	}
	for x := uint64(0); x < n; x++ {
		if indeg[x] == 0 {
			sweep(x)
		}
	}
	for x := uint64(0); x < n; x++ {
		sweep(x)
	}
	// The overflow is a few keys per frame, so a comparison sort is
	// cheap there; stability keeps each fingerprint's keys in sweep
	// order.
	slices.SortStableFunc(ft.overflow, func(a, b overflowKey) int { return cmp.Compare(a.fp, b.fp) })
	s.layOut(ft)
	return ft
}

// layOut groups the sweep's chains by endpoint into ft's flat arrays:
// a counting sort over the distinguished points (endpoint/chainLen)
// whose exclusive prefix sums are the dense index, stable, so each
// endpoint keeps its chains in sweep order.
func (s *buildScratch) layOut(ft *frameTable) {
	shift := bits.TrailingZeros64(s.chainLen)
	first := sized[uint32](len(s.next))
	for _, c := range s.chains {
		first[c.end>>shift]++
	}
	var sum uint32
	for i, n := range first {
		first[i] = sum
		sum += n
	}
	next := s.next
	copy(next, first)
	ft.first = first
	ft.refs = sized[chainRef](len(s.chains))
	for _, c := range s.chains {
		b := c.end >> shift
		ft.refs[next[b]] = c.ref
		next[b]++
	}
}

// fp40 extracts the 40-bit fingerprint from an MSB-first packed
// keystream sample.
func fp40(ks []byte) uint64 {
	return uint64(ks[0])<<32 | uint64(ks[1])<<24 | uint64(ks[2])<<16 |
		uint64(ks[3])<<8 | uint64(ks[4])
}

// Name implements Cracker.
func (t *Table) Name() string { return "table" }

// Identity implements Cracker: it digests the table's full geometry —
// key space, chain length and covered frame set — into one string.
// Resuming a campaign journal against a different table would change
// crack outcomes mid-run, so the manifest refuses it loudly.
func (t *Table) Identity() string {
	h := fnv.New64a()
	var b [4]byte
	for _, f := range t.Frames() {
		binary.LittleEndian.PutUint32(b[:], f)
		_, _ = h.Write(b[:])
	}
	return fmt.Sprintf("table/base=%#x/bits=%d/chainlen=%d/frames=%d:%016x",
		t.space.Base, t.space.Bits, t.chainLen, len(t.frames), h.Sum64())
}

// Bytes returns the heap bytes held by the table's per-frame arrays,
// summed from their capacities: its share of a process's live heap,
// published as the a51_table_bytes gauge.
func (t *Table) Bytes() int64 {
	var b int64
	for _, ft := range t.frames {
		b += 4*int64(cap(ft.first)) + 4*int64(cap(ft.refs)) + 16*int64(cap(ft.overflow))
	}
	return b
}

// Space returns the key space the table was built for.
func (t *Table) Space() KeySpace { return t.space }

// Frames returns the sorted frame numbers the table covers.
func (t *Table) Frames() []uint32 {
	out := make([]uint32, 0, len(t.frames))
	for f := range t.frames {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- serialization (the "ship the tables" step of the real attack) ---

// tableMagic versions the on-disk format: v2 seals the body behind a
// length prefix and a CRC32C, so a truncated download or a bit-flipped
// disk block fails loudly at load instead of replaying garbage chains.
var tableMagic = [8]byte{'A', '5', '1', 'T', 'M', 'T', 'O', '2'}

// tableMagicV1 is the unsealed pre-checksum format, recognized only to
// reject it with a clear message.
var tableMagicV1 = [8]byte{'A', '5', '1', 'T', 'M', 'T', 'O', '1'}

// maxTableBody caps the declared body length (a 24-bit space at the
// densest chain geometry stays far below it); anything larger is a
// corrupt header, not an allocation request.
const maxTableBody = 1 << 32

// maxIndexPerBodyByte caps the dense endpoint indexes LoadTable builds,
// 4 bytes per distinguished point per frame whatever the file lists, at
// this many bytes per body byte, so a small file declaring a wide space
// at chainLen 1 is not a large allocation. A total-coverage table
// stores at least one 12-byte chain record per 4×chainLen keys, so its
// indexes stay under 4/3 of its body.
const maxIndexPerBodyByte = 4

// ErrTableCorrupt reports a table file that failed structural
// validation: truncated, checksum mismatch, or fields outside the key
// space they claim to cover.
var ErrTableCorrupt = errors.New("a51: corrupt TMTO table file")

// tableCRC is the Castagnoli polynomial sealing the body.
var tableCRC = crc32.MakeTable(crc32.Castagnoli)

// Save writes the table in a flat binary format, so a precomputed
// trade-off can be distributed and reloaded (LoadTable) instead of
// rebuilt — the analogue of downloading the Kraken table set. Layout:
// magic, little-endian u64 body length, body, CRC32C(body).
func (t *Table) Save(w io.Writer) error {
	var body bytes.Buffer
	putU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		body.Write(b[:])
	}
	putU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		body.Write(b[:])
	}
	putU64(t.space.Base)
	putU32(uint32(t.space.Bits))
	putU64(t.chainLen)
	putU32(uint32(len(t.frames)))
	shift := bits.TrailingZeros64(t.chainLen)
	for _, frame := range t.Frames() {
		ft := t.frames[frame]
		putU32(frame)
		// The file lists only the distinguished points chains end at.
		var nends uint32
		for i := range ft.first {
			if len(ft.dpChains(i)) > 0 {
				nends++
			}
		}
		putU32(nends)
		for i := range ft.first {
			chains := ft.dpChains(i)
			if len(chains) == 0 {
				continue
			}
			putU64(uint64(i) << shift)
			putU32(uint32(len(chains)))
			for _, ch := range chains {
				putU64(ch.start(t.space.Bits))
				putU32(uint32(ch.length(t.space.Bits)))
			}
		}
		// The overflow is written one fingerprint at a time, each with
		// its run of keys.
		var nfps uint32
		for i, o := range ft.overflow {
			if i == 0 || o.fp != ft.overflow[i-1].fp {
				nfps++
			}
		}
		putU32(nfps)
		for rest := ft.overflow; len(rest) > 0; {
			keys := ft.overflowAt(rest[0].fp)
			putU64(rest[0].fp)
			putU32(uint32(len(keys)))
			for _, o := range keys {
				putU64(o.x)
			}
			rest = rest[len(keys):]
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(tableMagic[:]); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(body.Len()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.Write(body.Bytes()); err != nil {
		return err
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(body.Bytes(), tableCRC))
	if _, err := bw.Write(sum[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// tableReader walks a validated table body with sticky, positioned
// errors.
type tableReader struct {
	data []byte
	off  int
	err  error
}

func (r *tableReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: at byte %d: %s", ErrTableCorrupt, r.off, fmt.Sprintf(format, args...))
	}
}

func (r *tableReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.fail("truncated (need 8 bytes, %d left)", len(r.data)-r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *tableReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.data) {
		r.fail("truncated (need 4 bytes, %d left)", len(r.data)-r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

// need pre-checks that count items of size bytes each fit in the
// remaining body, so a corrupt count fails with a clear message
// instead of a slow byte-by-byte EOF walk.
func (r *tableReader) need(count uint32, size int, what string) bool {
	if r.err != nil {
		return false
	}
	if int64(count)*int64(size) > int64(len(r.data)-r.off) {
		r.fail("%s count %d exceeds remaining %d bytes", what, count, len(r.data)-r.off)
		return false
	}
	return true
}

// LoadTable reads a table Save wrote, validating the length prefix,
// the body checksum and every structural field — chain starts,
// lengths, overflow keys and fingerprints must all lie inside the key
// space and walk bounds the header declares. Corruption of any kind
// returns an error wrapping ErrTableCorrupt; no partially built table
// ever escapes.
func LoadTable(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("a51: reading table header: %w", err)
	}
	if magic == tableMagicV1 {
		return nil, errors.New("a51: v1 TMTO table file (no integrity seal); rebuild and re-save the table")
	}
	if magic != tableMagic {
		return nil, errors.New("a51: not an A5/1 TMTO table file")
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading body length: %v", ErrTableCorrupt, err)
	}
	bodyLen := binary.LittleEndian.Uint64(hdr[:])
	if bodyLen > maxTableBody {
		return nil, fmt.Errorf("%w: implausible body length %d", ErrTableCorrupt, bodyLen)
	}
	// Read rather than preallocate: the length is not yet trusted, and
	// a 16-byte file must not cost a maxTableBody allocation.
	body, err := io.ReadAll(io.LimitReader(br, int64(bodyLen)))
	if err != nil {
		return nil, fmt.Errorf("%w: reading body: %v", ErrTableCorrupt, err)
	}
	if uint64(len(body)) != bodyLen {
		return nil, fmt.Errorf("%w: body truncated: %d of %d bytes", ErrTableCorrupt, len(body), bodyLen)
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: checksum truncated: %v", ErrTableCorrupt, err)
	}
	if got := crc32.Checksum(body, tableCRC); got != binary.LittleEndian.Uint32(sum[:]) {
		return nil, fmt.Errorf("%w: CRC32C mismatch (file damaged in transit or at rest)", ErrTableCorrupt)
	}

	tr := &tableReader{data: body}
	t := &Table{frames: make(map[uint32]*frameTable)}
	t.space.Base = tr.u64()
	t.space.Bits = int(tr.u32())
	t.chainLen = tr.u64()
	t.maxWalk = int(4 * t.chainLen)
	if tr.err == nil && (t.space.Bits <= 0 || t.space.Bits > 24 ||
		t.chainLen == 0 || t.chainLen > 1<<20 || t.chainLen&(t.chainLen-1) != 0 ||
		!refFits(t.space.Bits, t.chainLen)) {
		tr.fail("invalid geometry (bits=%d chainLen=%d)", t.space.Bits, t.chainLen)
	}
	var n uint64
	if tr.err == nil {
		n = uint64(1) << t.space.Bits
	}
	shift := bits.TrailingZeros64(t.chainLen)
	ndps := n >> shift
	nframes := tr.u32()
	if index := uint64(nframes) * ndps * 4; tr.err == nil && index > maxIndexPerBodyByte*uint64(len(body)) {
		tr.fail("%d frames' endpoint indexes (%d bytes) out of proportion to a %d-byte body", nframes, index, len(body))
	}
	for i := uint32(0); i < nframes && tr.err == nil; i++ {
		frame := tr.u32()
		if _, dup := t.frames[frame]; dup {
			tr.fail("frame %d listed twice", frame)
			break
		}
		ft := &frameTable{first: sized[uint32](int(ndps))}
		// The file lists endpoints ascending, so an endpoint's offset, and
		// those of the distinguished points between it and the previous
		// endpoint, are set as it arrives; next is the first one unset.
		var prev, next uint64
		nends := tr.u32()
		for j := uint32(0); j < nends && tr.err == nil; j++ {
			end := tr.u64()
			switch {
			case tr.err != nil:
			case end >= n:
				tr.fail("chain endpoint %#x outside %d-bit space", end, t.space.Bits)
			case end&(t.chainLen-1) != 0:
				tr.fail("chain endpoint %#x is not a distinguished point", end)
			case j > 0 && end <= prev:
				tr.fail("chain endpoints not strictly ascending (%#x after %#x)", end, prev)
			}
			nchains := tr.u32()
			if tr.err == nil && nchains == 0 {
				tr.fail("chain endpoint %#x lists no chains", end)
			}
			if !tr.need(nchains, 12, "chain") {
				break
			}
			for ; next <= end>>shift; next++ {
				ft.first[next] = uint32(len(ft.refs))
			}
			for k := uint32(0); k < nchains && tr.err == nil; k++ {
				start, length := tr.u64(), tr.u32()
				if tr.err != nil {
					break
				}
				if start >= n || length == 0 || int(length) > t.maxWalk {
					tr.fail("chain (start=%#x len=%d) outside space/walk bounds", start, length)
					break
				}
				ft.refs = append(ft.refs, packRef(start, int(length), t.space.Bits))
			}
			prev = end
		}
		for ; next < ndps; next++ {
			ft.first[next] = uint32(len(ft.refs))
		}
		nfps := tr.u32()
		for j := uint32(0); j < nfps && tr.err == nil; j++ {
			fp := tr.u64()
			switch {
			case tr.err != nil:
			case fp >= 1<<tableFPBits:
				tr.fail("overflow fingerprint %#x wider than %d bits", fp, tableFPBits)
			case len(ft.overflow) > 0 && fp <= ft.overflow[len(ft.overflow)-1].fp:
				tr.fail("overflow fingerprints not strictly ascending (%#x after %#x)", fp, ft.overflow[len(ft.overflow)-1].fp)
			}
			nkeys := tr.u32()
			if tr.err == nil && nkeys == 0 {
				tr.fail("overflow fingerprint %#x lists no keys", fp)
			}
			if !tr.need(nkeys, 8, "overflow key") {
				break
			}
			for k := uint32(0); k < nkeys && tr.err == nil; k++ {
				x := tr.u64()
				if tr.err == nil && x >= n {
					tr.fail("overflow key index %#x outside %d-bit space", x, t.space.Bits)
					break
				}
				ft.overflow = append(ft.overflow, overflowKey{fp: fp, x: x})
			}
		}
		t.frames[frame] = ft
	}
	if tr.err == nil && tr.off != len(body) {
		tr.fail("%d trailing bytes after last frame", len(body)-tr.off)
	}
	if tr.err != nil {
		return nil, tr.err
	}
	metTableBytes.Set(float64(t.Bytes()))
	return t, nil
}
