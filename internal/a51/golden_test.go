package a51

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// The goldens below pin the bytes the batch engines produce, so a
// change to the cipher setup, the table build or the 64-lane passes
// must reproduce them exactly rather than merely agree with a twin
// that could have drifted with it. Regenerate only for an intended
// format change: run with -v and copy the logged digest.

// tableDigest builds a table and returns the SHA-256 of its Save bytes.
func tableDigest(t *testing.T, space KeySpace, cfg TableConfig) string {
	t.Helper()
	table, err := BuildTable(space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := table.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func TestGoldenTableBytes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		space KeySpace
		cfg   TableConfig
		want  string
	}{
		// The campaign engine's geometry: 12 bits over every paging frame
		// class, chain length 2.
		{"campaign", KeySpace{Base: 0xC118000000000000, Bits: 12}, TableConfig{Frames: PagingFrames(), ChainLen: 2},
			"759a467df871dd48081d764889ce87c8b74863066cd8382bafc756236d6cf0c8"},
		{"10bit-default-chain", KeySpace{Base: 0xC118000000000000, Bits: 10}, TableConfig{Frames: FrameRange(DefaultTableFrames)},
			"827632b02eb58b4ac7567adab55dfa34b77ff1332f881aa1c126556c2f9869f7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tableDigest(t, tc.space, tc.cfg)
			t.Logf("digest %s", got)
			if got != tc.want {
				t.Fatalf("Save digest = %s, want %s", got, tc.want)
			}
		})
	}
}

func TestGoldenEncryptBurstsBatch(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(13))
	kcs := make([]uint64, n)
	frames := make([]uint32, n)
	payloads := make([][]byte, n)
	for i := range kcs {
		kcs[i] = rng.Uint64()
		switch i % 3 {
		case 0: // a paging COUNT class
			frames[i] = PagingFrames()[rng.Intn(len(PagingFrames()))]
		case 1: // any 22-bit COUNT
			frames[i] = rng.Uint32() & 0x3FFFFF
		default: // bits above the 22 COUNT bits set: the cipher ignores them
			frames[i] = rng.Uint32()
		}
		payloads[i] = make([]byte, 1+rng.Intn(2*BurstBytes))
		rng.Read(payloads[i])
	}
	EncryptBurstsBatch(kcs, frames, payloads)
	h := sha256.New()
	for _, p := range payloads {
		h.Write(p)
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("digest %s", got)
	if want := "c0d2320c758ead9809b97e0da0dcd7133053d13a62fa61df6f8a39b6c905069d"; got != want {
		t.Fatalf("EncryptBurstsBatch digest = %s, want %s", got, want)
	}
}
