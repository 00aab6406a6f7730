package telecom

import (
	"crypto/sha256"
	"encoding/binary"

	"github.com/actfort/actfort/internal/a51"
)

// Count22 maps an absolute downlink frame number to the 22-bit COUNT
// value bursts are ciphered under (T1 pinned to the reduced
// hyperframe; see a51.Count22). The 51×26 COUNT schedule is defined
// next to the cipher it keys (internal/a51/frames.go); the telecom
// substrate re-exports it so radio callers never import the cipher
// package directly.
func Count22(fn uint32) uint32 { return a51.Count22(fn) }

// NextPagingStart returns the first frame at or after fn that begins a
// CCCH paging block — where the network schedules every SMS session's
// predictable paging burst.
func NextPagingStart(fn uint32) uint32 { return a51.NextPagingStart(fn) }

// PagingFrames enumerates every COUNT value a paging burst can be
// ciphered under — the frame classes a table backend precomputes.
func PagingFrames() []uint32 { return a51.PagingFrames() }

// CellMix describes the cipher composition of an operator's cells: the
// fraction running unencrypted (A5/0) and the fraction upgraded to
// A5/3; the remainder run A5/1. Campaign scenarios draw each victim's
// serving-cell cipher from it — the radio-environment half of a
// fortification sweep.
type CellMix struct {
	// A50 is the share of cells with no over-the-air encryption.
	A50 float64
	// A53 is the share of cells upgraded to A5/3, which the rig's A5/1
	// crackers cannot break.
	A53 float64
}

// Mode maps a uniform draw u in [0, 1) to the cipher of the drawn
// cell.
func (m CellMix) Mode(u float64) CipherMode {
	switch {
	case u < m.A50:
		return CipherA50
	case u < m.A50+m.A53:
		return CipherA53
	default:
		return CipherA51
	}
}

// xorBurstA53 XORs payload in place with an A5/3 (KASUMI) keystream
// stand-in derived via SHA-256. The construction is not KASUMI — it is
// a stand-in the same way SessionKeyFromKi stands in for COMP128 — but
// it has the one property the fortification scenarios need: no backend in
// internal/a51 recovers its key, so A5/3 traffic is opaque to the rig.
// XOR symmetry makes it its own inverse.
func xorBurstA53(kc uint64, frame uint32, payload []byte) {
	var seed [12]byte
	binary.BigEndian.PutUint64(seed[:8], kc)
	binary.BigEndian.PutUint32(seed[8:], frame)
	var block [32]byte
	for off := 0; off < len(payload); off += len(block) {
		h := sha256.New()
		h.Write([]byte("a53"))
		h.Write(seed[:])
		var ctr [4]byte
		binary.BigEndian.PutUint32(ctr[:], uint32(off))
		h.Write(ctr[:])
		h.Sum(block[:0])
		for i := 0; i < len(block) && off+i < len(payload); i++ {
			payload[off+i] ^= block[i]
		}
	}
}
