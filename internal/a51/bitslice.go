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
// each bit plane conditionally shifts under its mask.
func (s *bsState) clock() {
	b1, b2, b3 := s.r1[8], s.r2[10], s.r3[10]
	maj := b1&b2 | b1&b3 | b2&b3
	m1 := ^(b1 ^ maj)
	m2 := ^(b2 ^ maj)
	m3 := ^(b3 ^ maj)
	fb1 := s.r1[18] ^ s.r1[17] ^ s.r1[16] ^ s.r1[13]
	fb2 := s.r2[21] ^ s.r2[20]
	fb3 := s.r3[22] ^ s.r3[21] ^ s.r3[20] ^ s.r3[7]
	for j := 18; j > 0; j-- {
		s.r1[j] = m1&s.r1[j-1] | ^m1&s.r1[j]
	}
	s.r1[0] = m1&fb1 | ^m1&s.r1[0]
	for j := 21; j > 0; j-- {
		s.r2[j] = m2&s.r2[j-1] | ^m2&s.r2[j]
	}
	s.r2[0] = m2&fb2 | ^m2&s.r2[0]
	for j := 22; j > 0; j-- {
		s.r3[j] = m3&s.r3[j-1] | ^m3&s.r3[j]
	}
	s.r3[0] = m3&fb3 | ^m3&s.r3[0]
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
// boolean operations, batching the key space 64 candidates at a time.
type Bitsliced struct {
	// Workers is the number of concurrent batch scanners: 0 means
	// GOMAXPROCS, 1 serial.
	Workers int
}

var _ Cracker = Bitsliced{}

// Name implements Cracker.
func (b Bitsliced) Name() string { return "bitsliced" }

// Recover implements Cracker.
func (b Bitsliced) Recover(ctx context.Context, keystream []byte, frame uint32, space KeySpace) (uint64, error) {
	if len(keystream) < minSampleBytes {
		return 0, ErrBadKeystream
	}
	n, ok := space.Size()
	if !ok {
		return 0, ErrSpaceTooLarge
	}
	batches := (n + bsLanes - 1) / bsLanes
	return searchStrided(ctx, batches, b.Workers, func(bi uint64) (uint64, bool) {
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
