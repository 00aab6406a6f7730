// Package a51 implements the A5/1 stream cipher that encrypts GSM
// traffic, plus the known-plaintext session-key recovery the paper's
// sniffing step depends on ("If the SMS transmission is encrypted with
// A5/1 ... existing hacking method can be used to obtain the session
// key", §V.A.2).
//
// The cipher is implemented bit-exactly: three linear feedback shift
// registers (19/22/23 bits) with majority-rule irregular clocking,
// validated against the published reference test vector of Briceno,
// Goldberg and Wagner (1999).
//
// The real-world attack uses precomputed rainbow tables over the full
// 64-bit key space (the srlabs "Kraken" tables cited by the paper).
// This package reproduces that time–memory trade-off at reduced scale
// behind the pluggable Cracker interface — one batched contract,
// Cracker.RecoverBatch, for a trace's worth of samples or for one —
// with two backends:
//
//   - Bitsliced: packs 64 candidate keys into the bit positions of
//     uint64 words — one word per register bit — and clocks all 64
//     ciphers with the same handful of boolean operations, the classic
//     software speedup the real crackers use.
//   - Table: a precomputed lookup structure (BuildTable) mapping
//     keystream-prefix fingerprints back to candidate keys through
//     distinguished-point chains, the faithful Kraken analogue: one
//     expensive precomputation per key space, then amortized O(chain)
//     work per recovered message instead of a full keyspace sweep.
//     Each frame's chains are three flat arrays — a dense offset per
//     distinguished point, one contiguous run of 4-byte packed
//     (start, length) references grouped by endpoint, and the overflow
//     sorted by fingerprint — found by indexing, so the campaign's
//     table is a few heap objects per frame rather than one per
//     endpoint.
//
// The simulated network draws session keys from a configurable
// KeySpace subspace (and, for table-driven recovery, wraps frame
// counters into a small window) so the trade-off fits in test-sized
// memory; the attack structure (capture burst → derive keystream from
// known plaintext → invert to Kc → decrypt the rest of the session)
// is identical to the real deployment; only the scale differs.
//
// Batch ≡ scalar invariant: the two 64-lane batch engines — the
// encryptor (EncryptBurstsBatch: 64 independent (Kc, COUNT) bursts
// per boolean-clock pass, handed out as two keystream words per lane)
// and the table chain-replay engine (Table.RecoverBatch: one lane per
// unresolved lookup per round, each the next fingerprint that lookup's
// scalar walk or chain replay would compute) — are bit-for-bit
// equivalent to the scalar cipher applied one burst, or one lookup, at
// a time; those scalar references live in the tests. Only the cipher
// arithmetic is batched, including the key check that confirms a
// fingerprint hit: parked hits are checked 64 at a time, in each
// lookup's scalar order, on the bits the scalar matcher compares.
// Match order, shared-tail skipping and error cases are the scalar
// walk's, and no lane runs ahead of its lookup, so a batch computes
// exactly the fingerprints its scalar lookups compute and a batch of
// one costs what the scalar walk costs and answers exactly what a
// batch of thousands does.
//
// Every cipher setup, scalar or 64-lane, skips the 86 regular key- and
// COUNT-loading clocks: their result is linear in (Kc, COUNT), so it is
// eleven XORed table lookups (setupState), pinned against the clocked
// reference in the tests.
package a51

import (
	"crypto/cipher"
	"math/bits"
)

// Register geometry from the reference implementation.
const (
	r1Mask = 0x07FFFF // 19 bits
	r2Mask = 0x3FFFFF // 22 bits
	r3Mask = 0x7FFFFF // 23 bits

	r1Taps = 0x072000 // feedback: bits 18,17,16,13
	r2Taps = 0x300000 // feedback: bits 21,20
	r3Taps = 0x700080 // feedback: bits 22,21,20,7
)

// BurstBits is the keystream length per direction per GSM frame.
const BurstBits = 114

// BurstBytes is BurstBits rounded up to whole bytes (the final six
// bits of the 15th byte are zero).
const BurstBytes = (BurstBits + 7) / 8

// Cipher is an initialized A5/1 keystream generator for one (Kc,
// frame) pair. It implements crypto/cipher.Stream for byte-oriented
// use; GSM-faithful 114-bit bursts come from KeystreamBurst.
type Cipher struct {
	r1, r2, r3 uint32
}

var _ cipher.Stream = (*Cipher)(nil)

// parity returns the XOR of all bits of x. OnesCount32 compiles to a
// single POPCNT on amd64 — the clock function is the hottest spot of
// every scalar cipher path (burst synthesis, table builds, lookups),
// so the population-scale campaign leans on this being one
// instruction rather than a shift cascade.
func parity(x uint32) uint32 {
	return uint32(bits.OnesCount32(x) & 1)
}

// clockOne advances one register: shift left, feedback into bit 0.
func clockOne(reg, mask, taps uint32) uint32 {
	return ((reg << 1) & mask) | parity(reg&taps)
}

// clock advances registers by the majority rule: each register steps
// only if its clocking tap agrees with the majority of the three taps.
// The step decision is computed as a mask-select instead of branches:
// the taps are effectively random bits, so branching here mispredicts
// about half the time, and this is the single hottest function of every
// scalar cipher path (table replays, live sniffing, burst decryption).
func (c *Cipher) clock() {
	b1 := (c.r1 >> 8) & 1 // clocking taps: r1 bit 8, r2 and r3 bit 10
	b2 := (c.r2 >> 10) & 1
	b3 := (c.r3 >> 10) & 1
	maj := b1&b2 | b1&b3 | b2&b3
	m1 := -(b1 ^ maj ^ 1) // all-ones when the register steps
	m2 := -(b2 ^ maj ^ 1)
	m3 := -(b3 ^ maj ^ 1)
	c.r1 = (c.r1 &^ m1) | (clockOne(c.r1, r1Mask, r1Taps) & m1)
	c.r2 = (c.r2 &^ m2) | (clockOne(c.r2, r2Mask, r2Taps) & m2)
	c.r3 = (c.r3 &^ m3) | (clockOne(c.r3, r3Mask, r3Taps) & m3)
}

// outBit returns the current output bit: XOR of the three registers'
// top bits (18, 21 and 22).
func (c *Cipher) outBit() uint32 {
	return ((c.r1 >> 18) ^ (c.r2 >> 21) ^ (c.r3 >> 22)) & 1
}

// New initializes A5/1 for session key kc and the 22-bit frame number.
// Key bits are loaded LSB-first within each byte, bytes most
// significant first, matching the reference implementation's byte
// array {0x12, 0x23, ...} for kc = 0x1223456789ABCDEF.
func New(kc uint64, frame uint32) *Cipher {
	c := &Cipher{}
	c.init(kc, frame)
	return c
}

// init loads kc and frame into a cipher state: the linear setup by
// table lookup, then the 100 mixing clocks. Hot search loops call it on
// a stack-allocated Cipher to avoid New's heap allocation.
func (c *Cipher) init(kc uint64, frame uint32) {
	s := setupState(kc, frame)
	c.r1 = uint32(s) & r1Mask
	c.r2 = uint32(s>>19) & r2Mask
	c.r3 = uint32(s >> 41)
	for i := 0; i < 100; i++ {
		c.clock()
	}
}

// The 64 key-loading clocks and 22 COUNT-loading clocks that open every
// A5/1 setup are regular (no majority rule), and each one only shifts
// the registers and XORs one input bit into bit 0 of all three. The
// state they leave is therefore GF(2)-linear in (Kc, COUNT): the XOR,
// over the set input bits, of the state that bit alone would produce.
// setupState evaluates that map by table lookup instead of clocking,
// one table per input byte, on the packed state r1 | r2<<19 | r3<<41.
var (
	keyTab   [8][256]uint64 // keyTab[b][v]: state from Kc byte b (LSB = 0) equal to v
	frameTab [3][256]uint64 // frameTab[b][v]: state from COUNT byte b equal to v (bits 22+ ignored)
)

func init() {
	// basis[i] is the state produced by a lone input bit mixed in at
	// setup clock i: the bit lands in bit 0 of every register and is
	// then carried by the remaining 85-i regular clocks.
	var basis [86]uint64
	s := uint64(1 | 1<<19 | 1<<41)
	for i := len(basis) - 1; i >= 0; i-- {
		basis[i] = s
		s = uint64(clockOne(uint32(s)&r1Mask, r1Mask, r1Taps)) |
			uint64(clockOne(uint32(s>>19)&r2Mask, r2Mask, r2Taps))<<19 |
			uint64(clockOne(uint32(s>>41), r3Mask, r3Taps))<<41
	}
	for v := 0; v < 256; v++ {
		for bit := 0; bit < 8; bit++ {
			if v>>bit&1 == 0 {
				continue
			}
			// Key clock i mixes in bit i&7 of byte i/8 counting from the
			// most significant byte (see New), so Kc byte b feeds clocks
			// 8*(7-b) .. 8*(7-b)+7.
			for b := 0; b < 8; b++ {
				keyTab[b][v] ^= basis[8*(7-b)+bit]
			}
			// COUNT clock 64+j mixes in COUNT bit j, j < 22.
			for b := 0; b < 3; b++ {
				if j := 8*b + bit; j < 22 {
					frameTab[b][v] ^= basis[64+j]
				}
			}
		}
	}
}

// setupState returns the packed register state r1 | r2<<19 | r3<<41
// after the 86 regular setup clocks for (kc, frame): eleven lookups in
// place of 86 clocks. Frame bits above the 22 COUNT bits are ignored,
// as the clocked setup ignores them.
func setupState(kc uint64, frame uint32) uint64 {
	return keyTab[0][byte(kc)] ^ keyTab[1][byte(kc>>8)] ^
		keyTab[2][byte(kc>>16)] ^ keyTab[3][byte(kc>>24)] ^
		keyTab[4][byte(kc>>32)] ^ keyTab[5][byte(kc>>40)] ^
		keyTab[6][byte(kc>>48)] ^ keyTab[7][byte(kc>>56)] ^
		frameTab[0][byte(frame)] ^ frameTab[1][byte(frame>>8)] ^
		frameTab[2][byte(frame>>16)]
}

// KeystreamBurst produces the two 114-bit keystream blocks for this
// frame: downlink (network→mobile) then uplink. Bits are packed MSB
// first; the trailing six bits of each 15-byte block are zero.
// A fresh Cipher must be used per frame, as in GSM.
func (c *Cipher) KeystreamBurst() (downlink, uplink [BurstBytes]byte) {
	for i := 0; i < BurstBits; i++ {
		c.clock()
		downlink[i/8] |= byte(c.outBit()) << (7 - uint(i)&7)
	}
	for i := 0; i < BurstBits; i++ {
		c.clock()
		uplink[i/8] |= byte(c.outBit()) << (7 - uint(i)&7)
	}
	return downlink, uplink
}

// XORKeyStream XORs src with keystream into dst, implementing
// cipher.Stream. dst and src must overlap entirely or not at all;
// len(dst) must be >= len(src).
func (c *Cipher) XORKeyStream(dst, src []byte) {
	if len(dst) < len(src) {
		panic("a51: output smaller than input")
	}
	for i, b := range src {
		var ks byte
		for j := 0; j < 8; j++ {
			c.clock()
			ks |= byte(c.outBit()) << (7 - uint(j))
		}
		dst[i] = b ^ ks
	}
}
