package telecom

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/actfort/actfort/internal/a51"
)

// TestDerivationsMatchStreamingHash pins SessionKeyFromKi and sres, which hash
// one stack array, to the streaming sha256.New form they replaced: the
// preimage is the same byte sequence, so every key and response must
// agree over random SIM secrets, challenges and key spaces.
func TestDerivationsMatchStreamingHash(t *testing.T) {
	streamKc := func(ki, rnd [16]byte, space a51.KeySpace) uint64 {
		h := sha256.New()
		h.Write(ki[:])
		h.Write(rnd[:])
		return space.Key(binary.BigEndian.Uint64(h.Sum(nil)[:8]))
	}
	streamSRES := func(ki, rnd [16]byte) [4]byte {
		h := sha256.New()
		h.Write([]byte("sres"))
		h.Write(ki[:])
		h.Write(rnd[:])
		var out [4]byte
		copy(out[:], h.Sum(nil))
		return out
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 2000; i++ {
		var ki, rnd [16]byte
		rng.Read(ki[:])
		rng.Read(rnd[:])
		space := a51.KeySpace{Base: rng.Uint64(), Bits: rng.Intn(65)}
		if got, want := SessionKeyFromKi(ki, rnd, space), streamKc(ki, rnd, space); got != want {
			t.Fatalf("SessionKeyFromKi(%x, %x, %+v) = %#x, streaming form %#x", ki, rnd, space, got, want)
		}
		if got, want := sres(ki, rnd), streamSRES(ki, rnd); got != want {
			t.Fatalf("sres(%x, %x) = %x, streaming form %x", ki, rnd, got, want)
		}
	}
}
