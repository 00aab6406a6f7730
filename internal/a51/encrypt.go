package a51

// This file is the bitsliced *encryptor* — the synthesis-side twin of
// the bitsliced search backend in bitslice.go. Cracking packs 64
// candidate keys against one frame; radio synthesis has the opposite
// shape: 64 independent (Kc, COUNT) pairs, one burst each. The
// population-scale campaign engine encrypts every victim's OTP sessions
// through here, so one pass of the shared boolean clock replaces 64
// scalar cipher setups (and skips the 114 uplink clocks a scalar
// Cipher.KeystreamBurst pays for and throws away).

import (
	"crypto/subtle"
	"encoding/binary"
)

// loadPairs initializes the lanes for up to 64 independent (key, frame)
// pairs, mirroring Cipher.init bit for bit: every lane's packed setup
// state comes from the setupState tables, one transpose64 turns the 64
// packed states into the 64 register bit planes, and the 100 mixing
// clocks run bitsliced. Lanes beyond len(keys) start from the zero
// state. The search path (load) broadcasts one frame across all lanes;
// the encryptor and the replay engine give every lane its own COUNT.
func (s *bsState) loadPairs(keys []uint64, frames []uint32) {
	var planes [64]uint64
	for l, kc := range keys {
		planes[63-l] = setupState(kc, frames[l])
	}
	transpose64(&planes)
	// After the transpose, word (63-k) holds bit k of every lane's packed
	// state, lane l in bit l.
	for j := range s.r1 {
		s.r1[j] = planes[63-j]
	}
	for j := range s.r2 {
		s.r2[j] = planes[63-19-j]
	}
	for j := range s.r3 {
		s.r3[j] = planes[63-41-j]
	}
	for i := 0; i < 100; i++ {
		s.clock()
	}
}

// transpose64 transposes a 64×64 bit matrix in place (Hacker's Delight
// §7-3): element (r, c) is bit (63-c) of a[r]. The encryptor uses it to
// turn 64 output planes (one word per clock, one lane per bit) into 64
// per-lane keystream words (one word per lane, one clock per bit).
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; j >>= 1 {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := (a[k] ^ (a[k+j] >> j)) & m
			a[k] ^= t
			a[k+j] ^= t << j
		}
		m ^= m << (j >> 1)
	}
}

// burstRow is one lane's downlink burst as downlinkBatch hands it out:
// the two transposed keystream words, big-endian, so bytes
// [0, BurstBytes) are the burst exactly as Cipher.KeystreamBurst packs
// it and the last byte is zero padding.
type burstRow [16]byte

// downlinkBatch generates the 114-bit downlink keystream burst for up
// to 64 (key, frame) pairs in one bitsliced pass, writing lane l's
// burst into out[l]. Lanes beyond len(keys) are left untouched.
func downlinkBatch(keys []uint64, frames []uint32, out *[bsLanes]burstRow) {
	var s bsState
	s.loadPairs(keys, frames)
	// Collect the output planes — plane i holds every lane's keystream
	// bit i — then transpose 64 planes at a time back into per-lane
	// words. BurstBits = 114 spans two transpose blocks; the unused tail
	// planes of the second block stay zero, so the trailing bits of the
	// row are zero exactly as the scalar packing leaves them.
	var planes [2][64]uint64
	for i := 0; i < BurstBits; i++ {
		s.clock()
		planes[i>>6][i&63] = s.out()
	}
	for half := 0; half < 2; half++ {
		transpose64(&planes[half])
		for l := range keys {
			// After the transpose, bit (63-i) of word (63-l) is lane l's
			// keystream bit i of this block: the word reads MSB-first.
			binary.BigEndian.PutUint64(out[l][8*half:], planes[half][63-l])
		}
	}
}

// EncryptBurstsBatch XORs each payloads[i] in place with the downlink
// keystream of (kcs[i], frames[i]) as Cipher.KeystreamBurst produces
// it (an involution, so it decrypts too). Bursts are processed
// 64 at a time, so any batch size is accepted, and a batch of
// one is the per-burst encryptor. Payloads longer than BurstBytes reuse
// the keystream block cyclically: byte i is XORed with keystream byte
// i mod BurstBytes. The three slices must have equal length.
func EncryptBurstsBatch(kcs []uint64, frames []uint32, payloads [][]byte) {
	if len(frames) != len(kcs) || len(payloads) != len(kcs) {
		panic("a51: EncryptBurstsBatch slice lengths differ")
	}
	metKeystreamPasses.Add(int64((len(kcs) + bsLanes - 1) / bsLanes))
	metKeystreamLanes.Add(int64(len(kcs)))
	var rows [bsLanes]burstRow
	for base := 0; base < len(kcs); base += bsLanes {
		end := min(base+bsLanes, len(kcs))
		downlinkBatch(kcs[base:end], frames[base:end], &rows)
		for l, p := range payloads[base:end] {
			ks := rows[l][:BurstBytes]
			for off := 0; off < len(p); off += BurstBytes {
				subtle.XORBytes(p[off:], p[off:], ks)
			}
		}
	}
}
