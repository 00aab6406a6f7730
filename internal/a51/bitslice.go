package a51

import "context"

// bsLanes is the number of candidate keys one bitsliced state carries:
// one key per bit position of a uint64.
const bsLanes = 64

// bsState is a bitsliced A5/1 state: each register bit becomes one
// uint64 word whose 64 bit positions are 64 independent cipher lanes.
// A single boolean operation on a word therefore advances all 64
// candidate ciphers at once — the classic 30–60× per-candidate speedup
// real-world A5/1 crackers rely on.
type bsState struct {
	r1 [19]uint64
	r2 [22]uint64
	r3 [23]uint64
}

// clock advances the registers by the majority rule independently in
// every lane: m1/m2/m3 are per-lane masks of which registers step, and
// each bit plane conditionally shifts under its mask. The shift is
// written out one plane per statement, in descending order so every
// plane reads its lower neighbour before that neighbour moves:
// r[j] ^= m & (r[j] ^ r[j-1]) keeps r[j] where m is clear and takes
// r[j-1] where it is set. Constant indices into the fixed-size arrays
// compile without bounds checks; refClock in bitslice_test.go is the
// loop form this must match.
func (s *bsState) clock() {
	r1, r2, r3 := &s.r1, &s.r2, &s.r3
	b1, b2, b3 := r1[8], r2[10], r3[10]
	maj := b1&b2 | b1&b3 | b2&b3
	m1 := ^(b1 ^ maj)
	m2 := ^(b2 ^ maj)
	m3 := ^(b3 ^ maj)
	fb1 := r1[18] ^ r1[17] ^ r1[16] ^ r1[13]
	fb2 := r2[21] ^ r2[20]
	fb3 := r3[22] ^ r3[21] ^ r3[20] ^ r3[7]
	r1[18] ^= m1 & (r1[18] ^ r1[17])
	r1[17] ^= m1 & (r1[17] ^ r1[16])
	r1[16] ^= m1 & (r1[16] ^ r1[15])
	r1[15] ^= m1 & (r1[15] ^ r1[14])
	r1[14] ^= m1 & (r1[14] ^ r1[13])
	r1[13] ^= m1 & (r1[13] ^ r1[12])
	r1[12] ^= m1 & (r1[12] ^ r1[11])
	r1[11] ^= m1 & (r1[11] ^ r1[10])
	r1[10] ^= m1 & (r1[10] ^ r1[9])
	r1[9] ^= m1 & (r1[9] ^ r1[8])
	r1[8] ^= m1 & (r1[8] ^ r1[7])
	r1[7] ^= m1 & (r1[7] ^ r1[6])
	r1[6] ^= m1 & (r1[6] ^ r1[5])
	r1[5] ^= m1 & (r1[5] ^ r1[4])
	r1[4] ^= m1 & (r1[4] ^ r1[3])
	r1[3] ^= m1 & (r1[3] ^ r1[2])
	r1[2] ^= m1 & (r1[2] ^ r1[1])
	r1[1] ^= m1 & (r1[1] ^ r1[0])
	r1[0] ^= m1 & (r1[0] ^ fb1)
	r2[21] ^= m2 & (r2[21] ^ r2[20])
	r2[20] ^= m2 & (r2[20] ^ r2[19])
	r2[19] ^= m2 & (r2[19] ^ r2[18])
	r2[18] ^= m2 & (r2[18] ^ r2[17])
	r2[17] ^= m2 & (r2[17] ^ r2[16])
	r2[16] ^= m2 & (r2[16] ^ r2[15])
	r2[15] ^= m2 & (r2[15] ^ r2[14])
	r2[14] ^= m2 & (r2[14] ^ r2[13])
	r2[13] ^= m2 & (r2[13] ^ r2[12])
	r2[12] ^= m2 & (r2[12] ^ r2[11])
	r2[11] ^= m2 & (r2[11] ^ r2[10])
	r2[10] ^= m2 & (r2[10] ^ r2[9])
	r2[9] ^= m2 & (r2[9] ^ r2[8])
	r2[8] ^= m2 & (r2[8] ^ r2[7])
	r2[7] ^= m2 & (r2[7] ^ r2[6])
	r2[6] ^= m2 & (r2[6] ^ r2[5])
	r2[5] ^= m2 & (r2[5] ^ r2[4])
	r2[4] ^= m2 & (r2[4] ^ r2[3])
	r2[3] ^= m2 & (r2[3] ^ r2[2])
	r2[2] ^= m2 & (r2[2] ^ r2[1])
	r2[1] ^= m2 & (r2[1] ^ r2[0])
	r2[0] ^= m2 & (r2[0] ^ fb2)
	r3[22] ^= m3 & (r3[22] ^ r3[21])
	r3[21] ^= m3 & (r3[21] ^ r3[20])
	r3[20] ^= m3 & (r3[20] ^ r3[19])
	r3[19] ^= m3 & (r3[19] ^ r3[18])
	r3[18] ^= m3 & (r3[18] ^ r3[17])
	r3[17] ^= m3 & (r3[17] ^ r3[16])
	r3[16] ^= m3 & (r3[16] ^ r3[15])
	r3[15] ^= m3 & (r3[15] ^ r3[14])
	r3[14] ^= m3 & (r3[14] ^ r3[13])
	r3[13] ^= m3 & (r3[13] ^ r3[12])
	r3[12] ^= m3 & (r3[12] ^ r3[11])
	r3[11] ^= m3 & (r3[11] ^ r3[10])
	r3[10] ^= m3 & (r3[10] ^ r3[9])
	r3[9] ^= m3 & (r3[9] ^ r3[8])
	r3[8] ^= m3 & (r3[8] ^ r3[7])
	r3[7] ^= m3 & (r3[7] ^ r3[6])
	r3[6] ^= m3 & (r3[6] ^ r3[5])
	r3[5] ^= m3 & (r3[5] ^ r3[4])
	r3[4] ^= m3 & (r3[4] ^ r3[3])
	r3[3] ^= m3 & (r3[3] ^ r3[2])
	r3[2] ^= m3 & (r3[2] ^ r3[1])
	r3[1] ^= m3 & (r3[1] ^ r3[0])
	r3[0] ^= m3 & (r3[0] ^ fb3)
}

// out returns the per-lane output bit plane: XOR of the three
// registers' top bits.
func (s *bsState) out() uint64 {
	return s.r1[18] ^ s.r2[21] ^ s.r3[22]
}

// load initializes the lanes for up to 64 candidate keys and one frame
// number: loadPairs with the frame broadcast to every lane.
func (s *bsState) load(keys []uint64, frame uint32) {
	var frames [bsLanes]uint32
	for l := range keys {
		frames[l] = frame
	}
	s.loadPairs(keys, frames[:len(keys)])
}

// bsMatch scans up to 64 candidate keys against a keystream prefix in
// one bitsliced pass. Lanes die on their first mismatched bit (the
// alive mask clears), and the whole batch exits as soon as every lane
// is dead — typically within ~log2(64)+ε output clocks. Survivors are
// re-verified with the scalar matcher before being returned.
func bsMatch(keys []uint64, frame uint32, keystream []byte) (uint64, bool) {
	var s bsState
	s.load(keys, frame)
	alive := ^uint64(0)
	if len(keys) < bsLanes {
		alive = uint64(1)<<uint(len(keys)) - 1
	}
	nbits := len(keystream) * 8
	if nbits > BurstBits {
		nbits = BurstBits
	}
	for i := 0; i < nbits; i++ {
		s.clock()
		want := -uint64(keystream[i/8] >> (7 - uint(i)&7) & 1)
		alive &= ^(s.out() ^ want)
		if alive == 0 {
			return 0, false
		}
	}
	for l := 0; l < len(keys); l++ {
		if alive&(1<<uint(l)) != 0 && matches(keys[l], frame, keystream) {
			return keys[l], true
		}
	}
	return 0, false
}

// Bitsliced is the 64-lane search backend: it packs 64 candidate keys
// into uint64 bit planes and clocks all of them with one sequence of
// boolean operations, batching the key space 64 candidates at a time
// over GOMAXPROCS goroutines.
type Bitsliced struct{}

var _ Cracker = Bitsliced{}

// Name implements Cracker.
func (Bitsliced) Name() string { return "bitsliced" }

// Identity implements Cracker. The search has no parameters, so the
// backend's name is its whole identity.
func (Bitsliced) Identity() string { return "backend/bitsliced" }

// RecoverBatch implements Cracker: one strided sweep of the space per
// sample, in sample order. Once ctx is canceled, every sample not yet
// resolved reports ctx.Err().
func (b Bitsliced) RecoverBatch(ctx context.Context, samples []Sample, space KeySpace) (keys []uint64, errs []error) {
	keys = make([]uint64, len(samples))
	errs = make([]error, len(samples))
	for i, s := range samples {
		keys[i], errs[i] = b.recover(ctx, s.Keystream, s.Frame, space)
	}
	return keys, errs
}

// recover sweeps space for one sample's key.
func (Bitsliced) recover(ctx context.Context, keystream []byte, frame uint32, space KeySpace) (uint64, error) {
	if len(keystream) < minSampleBytes {
		return 0, ErrBadKeystream
	}
	n, ok := space.Size()
	if !ok {
		return 0, ErrSpaceTooLarge
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	batches := (n + bsLanes - 1) / bsLanes
	return searchStrided(ctx, batches, func(bi uint64) (uint64, bool) {
		var buf [bsLanes]uint64
		base := bi * bsLanes
		count := uint64(bsLanes)
		if base+count > n {
			count = n - base
		}
		keys := buf[:count]
		for j := range keys {
			keys[j] = space.Key(base + uint64(j))
		}
		return bsMatch(keys, frame, keystream)
	})
}
