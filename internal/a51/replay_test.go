package a51

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// replayTable builds a lookup table for the test's space and frames.
func replayTable(t *testing.T, space KeySpace, frames []uint32, chainLen int) *Table {
	t.Helper()
	table, err := BuildTable(space, TableConfig{Frames: frames, ChainLen: chainLen})
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// refFingerprints counts the scalar fingerprints refRecover computes,
// so checkAgainstRef can hold RecoverBatch to the same cipher work.
var refFingerprints int64

// refRecover is the scalar lookup RecoverBatch must reproduce: overflow
// hit, or walk from the observed fingerprint to the next distinguished
// point and replay the chains stored there, one scalar cipher setup per
// position, checking each fingerprint hit with the scalar matcher.
// Chains started from different keys share their tails after a merge,
// so visited positions are skipped; a lone chain has no tails to share,
// so the visited set is only built when merges are possible.
func refRecover(ctx context.Context, t *Table, keystream []byte, frame uint32, space KeySpace) (uint64, error) {
	if len(keystream) < minSampleBytes {
		return 0, ErrBadKeystream
	}
	if space != t.space {
		return 0, ErrTableSpaceMismatch
	}
	ft := t.frames[frame]
	if ft == nil {
		return recoverOne(ctx, Bitsliced{}, keystream, frame, space)
	}
	n, _ := space.Size()
	fingerprint := func(x uint64) uint64 {
		refFingerprints++
		return scalarFingerprint(space.Key(x), frame)
	}
	fp := fp40(keystream)
	for _, o := range ft.overflowAt(fp) {
		if key := space.Key(o.x); matches(key, frame, keystream) {
			return key, nil
		}
	}
	y := fp & (n - 1)
	dpMask := t.chainLen - 1
	for steps := 0; steps <= t.maxWalk; steps++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if y&dpMask != 0 {
			if steps == t.maxWalk {
				break // the next fingerprint would never be checked
			}
			y = fingerprint(y) & (n - 1)
			continue
		}
		chains := t.chainsAt(ft, y)
		var visited map[uint64]struct{}
		if len(chains) > 1 {
			visited = make(map[uint64]struct{}, t.maxWalk)
		}
		for _, ch := range chains {
			p := ch.start(t.space.Bits)
			for j := 0; j < ch.length(t.space.Bits); j++ {
				if _, seen := visited[p]; seen {
					break // shared tail: already replayed
				}
				if visited != nil {
					visited[p] = struct{}{}
				}
				pfp := fingerprint(p)
				if pfp == fp {
					if key := space.Key(p); matches(key, frame, keystream) {
						return key, nil
					}
				}
				p = pfp & (n - 1)
			}
		}
		break
	}
	return 0, ErrKeyNotFound
}

// checkAgainstRef resolves samples through one RecoverBatch call and
// through a batch of one per sample, and fails unless
// both return exactly what refRecover returns, sample for sample. It
// also pins the work: the RecoverBatch call must compute exactly the
// fingerprints the scalar lookups of its samples compute
// (a51_chain_fingerprints_total against refFingerprints), no
// speculative lanes past a hit or down a shared tail.
func checkAgainstRef(t *testing.T, label string, table *Table, samples []Sample, space KeySpace) {
	t.Helper()
	ctx := context.Background()
	before := metFingerprints.Value()
	keys, errs := table.RecoverBatch(ctx, samples, space)
	batchFPs := metFingerprints.Value() - before
	refFingerprints = 0
	for i, s := range samples {
		wantKey, wantErr := refRecover(ctx, table, s.Keystream, s.Frame, space)
		oneKey, oneErr := recoverOne(ctx, table, s.Keystream, s.Frame, space)
		for _, got := range []struct {
			path string
			key  uint64
			err  error
		}{{"RecoverBatch", keys[i], errs[i]}, {"batch of one", oneKey, oneErr}} {
			if (got.err == nil) != (wantErr == nil) ||
				(wantErr != nil && !errors.Is(got.err, wantErr)) {
				t.Fatalf("%s: sample %d: %s err = %v, reference err = %v", label, i, got.path, got.err, wantErr)
			}
			if wantErr == nil && got.key != wantKey {
				t.Fatalf("%s: sample %d: %s key = %#x, reference key = %#x", label, i, got.path, got.key, wantKey)
			}
		}
	}
	if batchFPs != refFingerprints {
		t.Fatalf("%s: RecoverBatch computed %d fingerprints, the scalar lookups %d", label, batchFPs, refFingerprints)
	}
}

// TestRecoverBatchMatchesScalar is the replayBatch ≡ scalar-replay
// property test: across chain lengths (from every-index-distinguished
// through merge-collision-heavy long chains in tiny spaces), batch
// sizes exercising sub-64 remainder lanes and multi-block gathers,
// covered and uncovered frames, full-burst and fingerprint-width
// samples, a short sample and unrecoverable keystreams, RecoverBatch
// and a batch of one must return exactly what refRecover returns,
// sample for sample — on the table's own space and on a mismatched
// one.
func TestRecoverBatchMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		name     string
		bits     int
		chainLen int
		batch    int
	}{
		{"dp-everywhere/sub-cutoff", 8, 1, 3},
		{"merge-heavy", 8, 16, 40},
		{"campaign-shape/one-block", 10, 2, 64},
		{"remainder-lane", 10, 4, 65},
		{"multi-block", 12, 2, 200},
		{"sub-cutoff", 12, 8, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			space := KeySpace{Base: 0xC118000000000000, Bits: tc.bits}
			frames := FrameRange(8)
			table := replayTable(t, space, frames, tc.chainLen)
			n, _ := space.Size()
			rng := rand.New(rand.NewSource(int64(tc.bits*1000 + tc.chainLen)))

			samples := make([]Sample, tc.batch)
			for i := range samples {
				frame := frames[rng.Intn(len(frames))]
				switch i % 5 {
				case 0, 1, 2: // recoverable: a real key's keystream
					key := space.Key(rng.Uint64() % n)
					down, _ := New(key, frame).KeystreamBurst()
					width := 8
					if i%2 == 0 {
						width = 5 // fingerprint-width: matches ⟺ fp equality
					}
					samples[i] = Sample{Keystream: down[:width], Frame: frame}
				case 3: // junk keystream: almost surely no key matches
					junk := make([]byte, 8)
					rng.Read(junk)
					samples[i] = Sample{Keystream: junk, Frame: frame}
				case 4: // uncovered frame: the bitsliced-sweep fallback
					key := space.Key(rng.Uint64() % n)
					down, _ := New(key, 1000).KeystreamBurst()
					samples[i] = Sample{Keystream: down[:8], Frame: 1000}
				}
			}
			// One unusably short sample rides along.
			if len(samples) > 2 {
				samples[2] = Sample{Keystream: []byte{1, 2}, Frame: frames[0]}
			}

			checkAgainstRef(t, "own space", table, samples, space)
			checkAgainstRef(t, "mismatched space", table, samples, KeySpace{Base: space.Base, Bits: tc.bits + 1})
		})
	}
}

// TestRecoverBatchFalseHitsMatchScalar forces fingerprint collisions:
// each sample is a real key's keystream with one bit flipped past the
// 40-bit fingerprint, so the chain replay hits the key's fingerprint,
// the key check fails, and the consumer must resume exactly where the
// scalar loop does. A flip past bit 113 lies outside the bits the key
// check compares, so such a sample still recovers its key. Every fourth
// sample is left intact. A few (key, frame) pairs repeat across each
// group so many lookups park on the same round; group sizes below and
// above scalarReplayCutoff exercise the scalar and the 64-lane check.
func TestRecoverBatchFalseHitsMatchScalar(t *testing.T) {
	space := KeySpace{Base: 0xC118000000000000, Bits: 10}
	frames := FrameRange(4)
	table := replayTable(t, space, frames, 4)
	for _, width := range []int{5, 9, 15, 20} {
		for _, group := range []int{3, scalarReplayCutoff - 1, 40, 130} {
			rng := rand.New(rand.NewSource(int64(width*1000 + group)))
			frame := frames[(width+group)%len(frames)]
			samples := make([]Sample, group)
			flipped := make([]int, group)
			for i := range samples {
				key := space.Key(uint64(i%3)*301 + 5)
				down, up := New(key, frame).KeystreamBurst()
				ks := append(down[:], up[:]...)[:width]
				flipped[i] = -1
				if i%4 != 0 && width*8 > tableFPBits {
					flipped[i] = tableFPBits + rng.Intn(width*8-tableFPBits)
					ks[flipped[i]/8] ^= 0x80 >> (flipped[i] % 8)
				}
				samples[i] = Sample{Keystream: ks, Frame: frame}
			}
			checkAgainstRef(t, fmt.Sprintf("width=%d group=%d", width, group), table, samples, space)
			keys, errs := table.RecoverBatch(context.Background(), samples, space)
			falseHits := 0
			for i := range samples {
				if flipped[i] >= 0 && flipped[i] < BurstBits {
					falseHits++
					if errs[i] == nil && keys[i] == space.Key(uint64(i%3)*301+5) {
						t.Fatalf("width=%d group=%d sample %d: flipped bit %d ignored", width, group, i, flipped[i])
					}
				}
			}
			if width > 5 && falseHits == 0 {
				t.Fatalf("width=%d group=%d: no false hit forced", width, group)
			}
		}
	}
}

// fuzzTables caches FuzzRecoverBatch's tables by (bits, chain length).
var fuzzTables = map[[2]int]*Table{}

// FuzzRecoverBatch decodes arbitrary bytes into one batch of samples on
// a small table (8–10 bits, frames 0–3, chain length 2–16) and holds
// every sample to refRecover through checkAgainstRef. The first byte
// picks the table; every further 4-byte record [h w a b] is one sample:
// frame h&7 (4–7 are uncovered, so they take the sweep fallback),
// keystream width w%21 bytes (below 5 is unusably short), and either
// the burst of key index a<<8|b (h&8 == 0, one bit flipped when h&16
// is set) or w%21 bytes of arbitrary keystream taken from the input.
func FuzzRecoverBatch(f *testing.F) {
	f.Add([]byte{0, 0, 8, 0, 7, 1, 8, 0, 7, 2, 5, 1, 9})
	f.Add([]byte{4, 0, 8, 0, 7, 0, 8, 0, 7, 0, 8, 0, 7, 16, 15, 0, 7, 5, 8, 3, 3})
	f.Add([]byte{11, 8, 8, 0xde, 0xad, 0xbe, 0xef, 0x10, 0x20, 0x30, 0x40, 1, 2, 0x33, 2, 4})
	f.Add([]byte{6, 1, 20, 3, 255, 17, 14, 1, 2, 9, 3, 0, 0, 2, 114, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		bits, chainLen := 8+int(data[0]%3), 2<<(data[0]/3%4)
		table := fuzzTables[[2]int{bits, chainLen}]
		space := KeySpace{Base: 0xC118000000000000, Bits: bits}
		if table == nil {
			table = replayTable(t, space, FrameRange(4), chainLen)
			fuzzTables[[2]int{bits, chainLen}] = table
		}
		n, _ := space.Size()
		var samples []Sample
		for rest := data[1:]; len(rest) >= 4 && len(samples) < 256; {
			h, width, a, b := rest[0], int(rest[1]%21), rest[2], rest[3]
			rest = rest[4:]
			frame := uint32(h & 7)
			var ks []byte
			if h&8 == 0 {
				down, up := New(space.Key((uint64(a)<<8|uint64(b))%n), frame).KeystreamBurst()
				ks = append(down[:], up[:]...)[:width]
				if h&16 != 0 && width > 0 {
					bit := int(a^b) % (width * 8)
					ks[bit/8] ^= 0x80 >> (bit % 8)
				}
			} else {
				width = min(width, len(rest))
				ks, rest = bytes.Clone(rest[:width]), rest[width:]
			}
			samples = append(samples, Sample{Keystream: ks, Frame: frame})
		}
		checkAgainstRef(t, "fuzz", table, samples, space)
	})
}

// TestRecoverBatchSpaceMismatch pins the whole-batch space check.
func TestRecoverBatchSpaceMismatch(t *testing.T) {
	space := KeySpace{Base: 0xC118000000000000, Bits: 8}
	table := replayTable(t, space, FrameRange(2), 2)
	down, _ := New(space.Key(3), 0).KeystreamBurst()
	_, errs := table.RecoverBatch(context.Background(),
		[]Sample{{Keystream: down[:8], Frame: 0}}, KeySpace{Base: 0, Bits: 8})
	if !errors.Is(errs[0], ErrTableSpaceMismatch) {
		t.Fatalf("err = %v, want ErrTableSpaceMismatch", errs[0])
	}
}

// TestRecoverBatchCancellation: a canceled context must surface on
// every unresolved sample instead of spinning the rounds.
func TestRecoverBatchCancellation(t *testing.T) {
	space := KeySpace{Base: 0xC118000000000000, Bits: 10}
	table := replayTable(t, space, FrameRange(2), 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	down, _ := New(space.Key(77), 1).KeystreamBurst()
	_, errs := table.RecoverBatch(ctx, []Sample{{Keystream: down[:8], Frame: 1}}, space)
	if !errors.Is(errs[0], context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", errs[0])
	}
}

// TestRecoverBatchAcrossLaneBlocks: one RecoverBatch call over more
// samples than one 64-lane pass carries, on mixed frames, recovers
// every key.
func TestRecoverBatchAcrossLaneBlocks(t *testing.T) {
	space := KeySpace{Base: 0xC118000000000000, Bits: 8}
	table := replayTable(t, space, FrameRange(4), 2)
	keys := make([]uint64, 70)
	samples := make([]Sample, 70)
	for i := range samples {
		keys[i] = space.Key(uint64(i * 3 % 256))
		frame := uint32(i % 4)
		down, _ := New(keys[i], frame).KeystreamBurst()
		samples[i] = Sample{Keystream: down[:8], Frame: frame}
	}
	got, errs := table.RecoverBatch(context.Background(), samples, space)
	for i := range samples {
		if errs[i] != nil || got[i] != keys[i] {
			t.Fatalf("sample %d: key=%#x err=%v want %#x", i, got[i], errs[i], keys[i])
		}
	}
}

// TestFPBatchMatchesScalarFingerprint pins the lane-sliced fingerprint
// against the scalar one across per-lane frames — the primitive the
// whole batched replay rests on.
func TestFPBatchMatchesScalarFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, lanes := range []int{1, 7, 63, 64} {
		keys := make([]uint64, lanes)
		frames := make([]uint32, lanes)
		out := make([]uint64, lanes)
		for i := range keys {
			keys[i] = rng.Uint64()
			frames[i] = rng.Uint32() & 0x3FFFFF
		}
		fpBatch(keys, frames, out)
		for i := range keys {
			if want := scalarFingerprint(keys[i], frames[i]); out[i] != want {
				t.Fatalf("lanes=%d lane %d: fp=%#x want %#x", lanes, i, out[i], want)
			}
		}
	}
}

// TestRecoverBatchScratchSurvivesGC pins the table's scratch free
// list: once a call has grown the replay scratch, a garbage collection
// does not take it away, so a later RecoverBatch of the same samples —
// a campaign shard's paging samples — allocates only its keys and errs.
func TestRecoverBatchScratchSurvivesGC(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race, newSeenSet's append of a make allocates the made slice, so allocation counts differ")
	}
	space := KeySpace{Base: 0xC118000000000000, Bits: 12}
	paging := PagingFrames()
	table := replayTable(t, space, paging, 2)
	rng := rand.New(rand.NewSource(5))
	samples := make([]Sample, 512)
	for i := range samples {
		frame := paging[rng.Intn(len(paging))]
		down, _ := New(space.Key(rng.Uint64()%4096), frame).KeystreamBurst()
		samples[i] = Sample{Keystream: down[:14], Frame: frame}
	}
	ctx := context.Background()
	recoverAll := func() {
		_, errs := table.RecoverBatch(ctx, samples, space)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("sample %d: %v", i, err)
			}
		}
	}
	recoverAll() // grows the scratch
	// The fewest allocations over three rounds: the count is process-wide,
	// and another goroutine's stray allocation can land in one window. A
	// scratch lost to the collections would regrow in every round.
	fewest := ^uint64(0)
	for range 3 {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recoverAll()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	if fewest != 2 {
		t.Fatalf("RecoverBatch after two collections made %d allocations, want 2 (keys and errs)", fewest)
	}
}

// BenchmarkTableRecoverBatch compares per-sample scalar chain replay
// (the refRecover reference), per-sample batches of one (the live
// sniffer's path) and one 64-lane batched RecoverBatch call
// over the same 64 samples (12-bit space, chain length 2, full 8-byte
// keystreams) — the mechanism cost the batch path saves per crack. The
// shard row times the call one campaign shard makes: ~5,800 14-byte
// paging samples over every PagingFrames class, on a table built
// outside the timer.
func BenchmarkTableRecoverBatch(b *testing.B) {
	const n, shardN = 64, 5800
	space := KeySpace{Base: 0xC118000000000000, Bits: 12}
	frames := FrameRange(16)
	table, err := BuildTable(space, TableConfig{Frames: frames, ChainLen: 2})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	samples := make([]Sample, n)
	for i := range samples {
		frame := frames[rng.Intn(len(frames))]
		down, _ := New(space.Key(rng.Uint64()%4096), frame).KeystreamBurst()
		samples[i] = Sample{Keystream: down[:8], Frame: frame}
	}
	paging := PagingFrames()
	shardTable, err := BuildTable(space, TableConfig{Frames: paging, ChainLen: 2})
	if err != nil {
		b.Fatal(err)
	}
	shard := make([]Sample, shardN)
	for i := range shard {
		frame := paging[rng.Intn(len(paging))]
		down, _ := New(space.Key(rng.Uint64()%4096), frame).KeystreamBurst()
		shard[i] = Sample{Keystream: down[:14], Frame: frame}
	}
	ctx := context.Background()
	for _, single := range []struct {
		name    string
		recover func(s Sample) (uint64, error)
	}{
		{"scalar", func(s Sample) (uint64, error) { return refRecover(ctx, table, s.Keystream, s.Frame, space) }},
		{"single", func(s Sample) (uint64, error) { return recoverOne(ctx, table, s.Keystream, s.Frame, space) }},
	} {
		b.Run(single.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range samples {
					if _, err := single.recover(s); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "cracks/s")
		})
	}
	for _, batch := range []struct {
		name    string
		table   *Table
		samples []Sample
	}{{"batch", table, samples}, {"shard", shardTable, shard}} {
		b.Run(batch.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, errs := batch.table.RecoverBatch(ctx, batch.samples, space); errs[0] != nil {
					b.Fatal(errs[0])
				}
			}
			b.ReportMetric(float64(len(batch.samples))*float64(b.N)/b.Elapsed().Seconds(), "cracks/s")
		})
	}
}
