package a51

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// DefaultTableFrames is the contiguous frame window the table tests
// conventionally use: one GSM 51-multiframe. Tables built with no
// explicit frame set default to PagingFrames() instead — the COUNT
// frame classes the network can actually put a known-plaintext paging
// burst on.
const DefaultTableFrames = 51

// FrameRange returns the frames [0, n).
func FrameRange(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

// allBackends builds one of each Cracker over space for table-covered
// frames [0, frames).
func allBackends(t *testing.T, space KeySpace, frames int) []Cracker {
	t.Helper()
	table, err := BuildTable(space, TableConfig{Frames: FrameRange(frames)})
	if err != nil {
		t.Fatal(err)
	}
	return []Cracker{Bitsliced{}, table}
}

// recoverOne is a one-sample RecoverBatch call, the form the sniffer's
// uncached crack and the MitM probe use.
func recoverOne(ctx context.Context, cr Cracker, keystream []byte, frame uint32, space KeySpace) (uint64, error) {
	keys, errs := cr.RecoverBatch(ctx, []Sample{{Keystream: keystream, Frame: frame}}, space)
	return keys[0], errs[0]
}

func TestCrackerBackendsAgree(t *testing.T) {
	space := KeySpace{Base: 0x5A5A000000000000, Bits: 10}
	for _, frame := range []uint32{0, 7, 33} {
		for _, idx := range []uint64{0, 1, 511, 1023} {
			kc := space.Key(idx)
			down, _ := New(kc, frame).KeystreamBurst()
			for _, cr := range allBackends(t, space, 40) {
				got, err := recoverOne(context.Background(), cr, down[:8], frame, space)
				if err != nil {
					t.Fatalf("%s: frame=%d idx=%d: %v", cr.Name(), frame, idx, err)
				}
				if got != kc {
					t.Fatalf("%s: frame=%d idx=%d: got %#x want %#x", cr.Name(), frame, idx, got, kc)
				}
			}
		}
	}
}

func TestCrackerBackendsNotFound(t *testing.T) {
	space := KeySpace{Bits: 8}
	outside := uint64(1) << 20
	down, _ := New(outside, 5).KeystreamBurst()
	for _, cr := range allBackends(t, space, 8) {
		if _, err := recoverOne(context.Background(), cr, down[:8], 5, space); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("%s: err = %v want ErrKeyNotFound", cr.Name(), err)
		}
	}
}

func TestCrackerBackendsShortSample(t *testing.T) {
	for _, cr := range allBackends(t, KeySpace{Bits: 6}, 2) {
		if _, err := recoverOne(context.Background(), cr, []byte{1, 2}, 0, KeySpace{Bits: 6}); !errors.Is(err, ErrBadKeystream) {
			t.Fatalf("%s: err = %v want ErrBadKeystream", cr.Name(), err)
		}
	}
}

// TestBitslicedCancel: a canceled context must surface on every sample
// of a batch, including one whose key a sweep would find.
func TestBitslicedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	space := KeySpace{Bits: 20}
	bogus := []byte{0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99, 0x88}
	down, _ := New(space.Key(0), 0).KeystreamBurst()
	_, errs := Bitsliced{}.RecoverBatch(ctx, []Sample{{Keystream: bogus}, {Keystream: down[:8]}}, space)
	for i, err := range errs {
		if err != context.Canceled {
			t.Fatalf("sample %d: err = %v want context.Canceled", i, err)
		}
	}
}

func TestBitslicedFullSpaceRejected(t *testing.T) {
	if _, err := recoverOne(context.Background(), Bitsliced{}, make([]byte, 8), 0, KeySpace{Bits: 64}); !errors.Is(err, ErrSpaceTooLarge) {
		t.Fatalf("err = %v want ErrSpaceTooLarge", err)
	}
}

// TestBitslicedKeystreamEquivalence is the property test: the
// bitsliced engine must generate bit-identical keystream to the scalar
// cipher for random (key, frame) pairs across all 64 lanes.
func TestBitslicedKeystreamEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rng.Seed(seed)
		frame := rng.Uint32() & 0x3FFFFF
		keys := make([]uint64, bsLanes)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		sliced := bsKeystream(keys, frame, BurstBits)
		for l, kc := range keys {
			down, _ := New(kc, frame).KeystreamBurst()
			if !bytes.Equal(sliced[l], down[:]) {
				t.Logf("lane %d: key %#x frame %#x: bitsliced %x != scalar %x", l, kc, frame, sliced[l], down)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestBitslicedPartialBatch exercises lanes-shorter-than-64 batches
// and the reference KAT vector through the bitsliced path.
func TestBitslicedPartialBatch(t *testing.T) {
	keys := []uint64{katKey, katKey + 1, 3}
	sliced := bsKeystream(keys, katFrame, BurstBits)
	for l, kc := range keys {
		down, _ := New(kc, katFrame).KeystreamBurst()
		if !bytes.Equal(sliced[l], down[:]) {
			t.Fatalf("lane %d diverges from scalar", l)
		}
	}
}

func TestEncryptBurstWraparound(t *testing.T) {
	// A payload longer than one burst's keystream reuses the downlink
	// block cyclically: byte i is XORed with keystream byte i mod
	// BurstBytes.
	payload := bytes.Repeat([]byte("ABCDEFGHIJ"), 5) // 50 bytes > BurstBytes
	ct := encryptBurst(katKey, 12, payload)
	if len(ct) != len(payload) {
		t.Fatalf("ciphertext length %d want %d", len(ct), len(payload))
	}
	down, _ := New(katKey, 12).KeystreamBurst()
	for i := range payload {
		if want := payload[i] ^ down[i%BurstBytes]; ct[i] != want {
			t.Fatalf("byte %d: got %#x want %#x (keystream must wrap at %d bytes)", i, ct[i], want, BurstBytes)
		}
	}
	if got := encryptBurst(katKey, 12, ct); !bytes.Equal(got, payload) {
		t.Fatal("encryptBurst is not an involution on wrapped payloads")
	}
}

func TestTableRecoverAcrossFrames(t *testing.T) {
	space := KeySpace{Base: 0x1122000000000000, Bits: 12}
	table, err := BuildTable(space, TableConfig{Frames: FrameRange(DefaultTableFrames)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		kc := space.Key(rng.Uint64())
		frame := uint32(rng.Intn(DefaultTableFrames))
		down, _ := New(kc, frame).KeystreamBurst()
		got, err := recoverOne(context.Background(), table, down[:8], frame, space)
		if err != nil {
			t.Fatalf("trial %d frame %d: %v", trial, frame, err)
		}
		if got != kc {
			t.Fatalf("trial %d: got %#x want %#x", trial, got, kc)
		}
	}
}

func TestTableUncoveredFrameFallsBack(t *testing.T) {
	space := KeySpace{Bits: 8}
	table, err := BuildTable(space, TableConfig{Frames: FrameRange(4)})
	if err != nil {
		t.Fatal(err)
	}
	kc := space.Key(200)
	frame := uint32(999) // far outside the window
	down, _ := New(kc, frame).KeystreamBurst()
	got, err := recoverOne(context.Background(), table, down[:8], frame, space)
	if err != nil {
		t.Fatal(err)
	}
	if got != kc {
		t.Fatalf("fallback got %#x want %#x", got, kc)
	}
}

func TestTableSpaceMismatch(t *testing.T) {
	table, err := BuildTable(KeySpace{Bits: 6}, TableConfig{Frames: FrameRange(1)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = recoverOne(context.Background(), table, make([]byte, 8), 0, KeySpace{Bits: 7})
	if !errors.Is(err, ErrTableSpaceMismatch) {
		t.Fatalf("err = %v want ErrTableSpaceMismatch", err)
	}
}

func TestTableSaveLoadRoundTrip(t *testing.T) {
	space := KeySpace{Base: 0xC118000000000000, Bits: 10}
	table, err := BuildTable(space, TableConfig{Frames: FrameRange(8), ChainLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := table.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Space() != space {
		t.Fatalf("loaded space %+v want %+v", loaded.Space(), space)
	}
	if len(loaded.Frames()) != 8 {
		t.Fatalf("loaded %d frames want 8", len(loaded.Frames()))
	}
	kc := space.Key(777)
	frame := uint32(5)
	down, _ := New(kc, frame).KeystreamBurst()
	got, err := recoverOne(context.Background(), loaded, down[:8], frame, space)
	if err != nil {
		t.Fatal(err)
	}
	if got != kc {
		t.Fatalf("loaded table got %#x want %#x", got, kc)
	}
}

func TestLoadTableRejectsGarbage(t *testing.T) {
	if _, err := LoadTable(bytes.NewReader([]byte("not a table at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestNewCrackerFactory(t *testing.T) {
	space := KeySpace{Bits: 8}
	for name, want := range map[string]string{
		"":          "bitsliced",
		"bitsliced": "bitsliced",
		"table":     "table",
	} {
		cr, err := NewCracker(name, space)
		if err != nil {
			t.Fatalf("NewCracker(%q): %v", name, err)
		}
		if cr.Name() != want {
			t.Fatalf("NewCracker(%q).Name() = %q want %q", name, cr.Name(), want)
		}
	}
	// Checkpoint manifests written before Identity joined the Cracker
	// interface pin the bitsliced backend under exactly this string.
	if got := (Bitsliced{}).Identity(); got != "backend/bitsliced" {
		t.Fatalf("Bitsliced.Identity() = %q, want %q", got, "backend/bitsliced")
	}
	// The brute-force backends are gone; their names fail like any
	// other unknown name.
	for _, name := range []string{"quantum", "exhaustive", "parallel"} {
		if _, err := NewCracker(name, space); err == nil || !strings.Contains(err.Error(), "unknown cracker backend") {
			t.Fatalf("NewCracker(%q): err = %v, want unknown-backend error", name, err)
		}
	}
}

// The backend-comparison benchmark lives at the repo root as
// BenchmarkAblationCrackKeyspace (bench_test.go), which CI runs; only
// the bitsliced primitive gets a package-local microbenchmark here.
func BenchmarkBitslicedBatch(b *testing.B) {
	space := KeySpace{Base: 0x9900000000000000, Bits: 16}
	down, _ := New(space.Key(65535), 8).KeystreamBurst()
	var keys [bsLanes]uint64
	for i := range keys {
		keys[i] = space.Key(uint64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, hit := bsMatch(keys[:], 8, down[:8]); hit {
			b.Fatal("unexpected match")
		}
	}
}
