package a51

import (
	"math/rand"
	"testing"
)

// refClock is the loop form of bsState.clock: each register's bit
// planes shift one position under its majority mask, top plane first,
// and plane 0 takes the feedback. The straight-line production clock
// is pinned against it.
func refClock(s *bsState) {
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

// randomBSState fills every bit plane from rng, so all 64 lanes start
// from independent arbitrary register states.
func randomBSState(rng *rand.Rand) bsState {
	var s bsState
	for j := range s.r1 {
		s.r1[j] = rng.Uint64()
	}
	for j := range s.r2 {
		s.r2[j] = rng.Uint64()
	}
	for j := range s.r3 {
		s.r3[j] = rng.Uint64()
	}
	return s
}

// TestBitslicedClockMatchesReference: the straight-line clock must
// leave exactly the state the loop reference leaves, clock after clock,
// from seeded random states and from the all-zero and all-ones states
// (the fixed points of the majority rule's "every register steps"
// case).
func TestBitslicedClockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var ones bsState
	for j := range ones.r1 {
		ones.r1[j] = ^uint64(0)
	}
	for j := range ones.r2 {
		ones.r2[j] = ^uint64(0)
	}
	for j := range ones.r3 {
		ones.r3[j] = ^uint64(0)
	}
	starts := []bsState{{}, ones}
	for i := 0; i < 40; i++ {
		starts = append(starts, randomBSState(rng))
	}
	const clocks = 300 // 42 starts × 300 = 12,600 clocks
	for si, start := range starts {
		got, want := start, start
		for c := 0; c < clocks; c++ {
			got.clock()
			refClock(&want)
			if got != want {
				t.Fatalf("start %d clock %d: straight-line state %+v, reference %+v", si, c, got, want)
			}
		}
	}
}

// BenchmarkBitslicedClock times one 64-lane clock: the loop reference
// against the straight-line production form. Every bitsliced path
// (search, setup mixing, encryption, chain replay) is a sequence of
// these.
func BenchmarkBitslicedClock(b *testing.B) {
	start := randomBSState(rand.New(rand.NewSource(1)))
	b.Run("impl=loop", func(b *testing.B) {
		s := start
		for i := 0; i < b.N; i++ {
			refClock(&s)
		}
		sinkBS = s
	})
	b.Run("impl=straight", func(b *testing.B) {
		s := start
		for i := 0; i < b.N; i++ {
			s.clock()
		}
		sinkBS = s
	})
}

var sinkBS bsState
