package a51

import (
	"math/rand"
	"testing"
)

// refSetup is the clocked A5/1 setup the setupState tables replace: 64
// regular clocks mixing in the key bits, 22 mixing in the COUNT bits,
// then the 100 majority-rule mixing clocks. It is the test reference
// Cipher.init and bsState.loadPairs are pinned against.
func refSetup(kc uint64, frame uint32) Cipher {
	var c Cipher
	mix := func(bit uint32) {
		c.r1 = clockOne(c.r1, r1Mask, r1Taps) ^ bit
		c.r2 = clockOne(c.r2, r2Mask, r2Taps) ^ bit
		c.r3 = clockOne(c.r3, r3Mask, r3Taps) ^ bit
	}
	for i := 0; i < 64; i++ {
		keyByte := byte(kc >> (56 - 8*uint(i/8)))
		mix(uint32(keyByte>>(uint(i)&7)) & 1)
	}
	for i := 0; i < 22; i++ {
		mix((frame >> uint(i)) & 1)
	}
	for i := 0; i < 100; i++ {
		c.clock()
	}
	return c
}

// bsKeystream generates nbits of downlink keystream for up to 64 keys
// on one frame through the bitsliced search state, one MSB-first packed
// byte slice per key: the test view of the lanes bsMatch clocks.
func bsKeystream(keys []uint64, frame uint32, nbits int) [][]byte {
	var s bsState
	s.load(keys, frame)
	out := make([][]byte, len(keys))
	for l := range out {
		out[l] = make([]byte, (nbits+7)/8)
	}
	for i := 0; i < nbits; i++ {
		s.clock()
		plane := s.out()
		for l := range out {
			out[l][i/8] |= byte(plane>>uint(l)&1) << (7 - uint(i)&7)
		}
	}
	return out
}

// setupPairs returns n seeded (Kc, COUNT) pairs: the all-zero and
// all-ones keys, COUNT values with bits above the 22 COUNT bits set,
// and random pairs.
func setupPairs(n int, seed int64) ([]uint64, []uint32) {
	rng := rand.New(rand.NewSource(seed))
	kcs := make([]uint64, n)
	frames := make([]uint32, n)
	for i := range kcs {
		kcs[i] = rng.Uint64()
		frames[i] = rng.Uint32() // bits 22..31 set about half the time each
		switch i % 5 {
		case 0:
			kcs[i] = 0
		case 1:
			kcs[i] = ^uint64(0)
		case 2:
			frames[i] &= 0x3FFFFF
		case 3:
			frames[i] |= 0xFFC00000
		}
	}
	return kcs, frames
}

// TestSetupStateMatchesClockedSetup: the table-driven setup must leave
// exactly the register state of the 86-clock reference, including for
// frames whose bits above the 22 COUNT bits are set (the clocked setup
// ignores them).
func TestSetupStateMatchesClockedSetup(t *testing.T) {
	kcs, frames := setupPairs(10000, 17)
	for i, kc := range kcs {
		var got Cipher
		got.init(kc, frames[i])
		if want := refSetup(kc, frames[i]); got != want {
			t.Fatalf("kc=%#x frame=%#x: init state %+v, clocked reference %+v", kc, frames[i], got, want)
		}
	}
}

// TestLoadPairsMatchesScalarInit: every lane of a loadPairs state must
// hold exactly the registers the scalar Cipher.init leaves for its
// (Kc, COUNT) pair, for full and partial lane counts.
func TestLoadPairsMatchesScalarInit(t *testing.T) {
	for _, lanes := range []int{1, 7, 63, 64} {
		kcs, frames := setupPairs(lanes, int64(lanes))
		var s bsState
		s.loadPairs(kcs, frames)
		for l := range kcs {
			var got Cipher
			for j := range s.r1 {
				got.r1 |= uint32(s.r1[j]>>uint(l)&1) << j
			}
			for j := range s.r2 {
				got.r2 |= uint32(s.r2[j]>>uint(l)&1) << j
			}
			for j := range s.r3 {
				got.r3 |= uint32(s.r3[j]>>uint(l)&1) << j
			}
			var want Cipher
			want.init(kcs[l], frames[l])
			if got != want {
				t.Fatalf("lanes=%d lane %d (kc=%#x frame=%#x): lane state %+v, scalar %+v",
					lanes, l, kcs[l], frames[l], got, want)
			}
		}
	}
}

// BenchmarkCipherInit compares the 86-clock reference setup with the
// table-driven one (both include the 100 mixing clocks).
func BenchmarkCipherInit(b *testing.B) {
	kcs, frames := setupPairs(1024, 3)
	var sink Cipher
	b.Run("clocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = refSetup(kcs[i&1023], frames[i&1023])
		}
	})
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink.init(kcs[i&1023], frames[i&1023])
		}
	})
	_ = sink
}
