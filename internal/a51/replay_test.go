package a51

import (
	"context"
	"errors"
	"math/rand"
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

// TestRecoverBatchMatchesScalar is the replayBatch ≡ scalar-replay
// property test: across chain lengths (from every-index-distinguished
// through merge-collision-heavy long chains in tiny spaces), batch
// sizes exercising sub-64 remainder lanes and multi-block gathers,
// covered and uncovered frames, full-burst and fingerprint-width
// samples and unrecoverable keystreams, RecoverBatch must return
// exactly what Recover returns, sample for sample.
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

			keys, errs := table.RecoverBatch(context.Background(), samples, space)
			for i, s := range samples {
				wantKey, wantErr := table.Recover(context.Background(), s.Keystream, s.Frame, space)
				if (errs[i] == nil) != (wantErr == nil) ||
					(wantErr != nil && !errors.Is(errs[i], wantErr)) {
					t.Fatalf("sample %d: err = %v, scalar err = %v", i, errs[i], wantErr)
				}
				if wantErr == nil && keys[i] != wantKey {
					t.Fatalf("sample %d: key = %#x, scalar key = %#x", i, keys[i], wantKey)
				}
			}
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
			keys, errs := table.RecoverBatch(context.Background(), samples, space)
			falseHits := 0
			for i, s := range samples {
				wantKey, wantErr := table.Recover(context.Background(), s.Keystream, s.Frame, space)
				if (errs[i] == nil) != (wantErr == nil) ||
					(wantErr != nil && !errors.Is(errs[i], wantErr)) {
					t.Fatalf("width=%d group=%d sample %d (flip %d): err = %v, scalar err = %v",
						width, group, i, flipped[i], errs[i], wantErr)
				}
				if wantErr == nil && keys[i] != wantKey {
					t.Fatalf("width=%d group=%d sample %d (flip %d): key = %#x, scalar key = %#x",
						width, group, i, flipped[i], keys[i], wantKey)
				}
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

// TestRecoverAllScalarFallback: a backend without RecoverBatch goes
// through the per-sample loop with identical results.
func TestRecoverAllScalarFallback(t *testing.T) {
	space := KeySpace{Base: 0xC118000000000000, Bits: 8}
	cr := Bitsliced{Workers: 1}
	key := space.Key(200)
	down, _ := New(key, 5).KeystreamBurst()
	junk := []byte{0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99, 0x88}
	keys, errs := RecoverAll(context.Background(), cr,
		[]Sample{{Keystream: down[:8], Frame: 5}, {Keystream: junk, Frame: 5}}, space)
	if errs[0] != nil || keys[0] != key {
		t.Fatalf("sample 0: key=%#x err=%v", keys[0], errs[0])
	}
	if !errors.Is(errs[1], ErrKeyNotFound) {
		t.Fatalf("sample 1: err=%v want ErrKeyNotFound", errs[1])
	}
}

// TestRecoverAllUsesBatchBackend: a table goes through RecoverBatch
// (the results must match per-sample Recover either way; this pins the
// dispatch).
func TestRecoverAllUsesBatchBackend(t *testing.T) {
	space := KeySpace{Base: 0xC118000000000000, Bits: 8}
	table := replayTable(t, space, FrameRange(4), 2)
	var _ BatchCracker = table // compile-time: Table is a BatchCracker
	keys := make([]uint64, 70)
	samples := make([]Sample, 70)
	for i := range samples {
		keys[i] = space.Key(uint64(i * 3 % 256))
		frame := uint32(i % 4)
		down, _ := New(keys[i], frame).KeystreamBurst()
		samples[i] = Sample{Keystream: down[:8], Frame: frame}
	}
	got, errs := RecoverAll(context.Background(), table, samples, space)
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

// BenchmarkTableRecoverBatch compares per-sample scalar chain replay
// (Table.Recover) with one 64-lane batched RecoverBatch call over the
// same 64 campaign-shaped samples (12-bit space, chain length 2, full
// 8-byte keystreams) — the mechanism cost the batch path saves per
// crack.
func BenchmarkTableRecoverBatch(b *testing.B) {
	const n = 64
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
	ctx := context.Background()
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range samples {
				if _, err := table.Recover(ctx, s.Keystream, s.Frame, space); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "cracks/s")
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, errs := table.RecoverBatch(ctx, samples, space); errs[0] != nil {
				b.Fatal(errs[0])
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "cracks/s")
	})
}
