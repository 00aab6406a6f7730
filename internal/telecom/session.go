package telecom

import (
	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/gsmcodec"
)

// SMSSession describes one SMS transmission on the GSM air interface:
// the radio coordinates (channel, cell, session and frame numbers),
// the cipher context, and the TPDU to carry. Network.SendSMS encodes
// its live traffic through it, and the population-scale campaign
// engine (internal/campaign) synthesizes air traffic for millions of
// subscribers without driving a full Network — both produce
// bit-identical bursts for the same parameters.
type SMSSession struct {
	ARFCN     int
	CellID    string
	SessionID uint32
	// StartFrame is the absolute frame number of the paging burst;
	// every following burst increments it. Each emitted burst carries
	// the 22-bit COUNT value (Count22) of its frame — the 51×26
	// multiframe schedule, not a flat counter. Callers wanting the
	// paging burst on a predictable frame class (table-backend
	// coverage) align StartFrame with NextPagingStart.
	StartFrame uint32
	// Cipher selects the over-the-air protection: CipherA50 (or zero)
	// transmits plaintext, CipherA51 encrypts under Kc with A5/1,
	// CipherA53 with the uncrackable A5/3 stand-in.
	Cipher CipherMode
	Kc     uint64
	// IMSI and RAND identify the authentication context the session
	// runs under. Both are visible on the air in real GSM — paging
	// identities and the RAND of the authentication request travel in
	// the clear — which is what lets a passive sniffer key a
	// per-subscriber Kc cache on them.
	IMSI string
	RAND [16]byte
	// Deliver is the SMS payload.
	Deliver gsmcodec.Deliver
}

// SessionBurstCount returns how many radio bursts EncodeSMSBurstsInto
// emits per session for a TPDU of rawLen marshaled bytes: the paging burst plus the
// payload chunks. Batch callers (the campaign engine) use it to lay out
// the COUNT schedule of millions of sessions from one shared TPDU
// without marshaling each session.
func SessionBurstCount(rawLen int) int {
	return 1 + (rawLen+BurstPayloadMax-1)/BurstPayloadMax
}

// appendSessionBursts lays out a session's bursts — plaintext payloads
// and final COUNT frame values, everything but the cipher pass — onto
// dst, under the session's identity and cell as the burst carries them.
// Burst 0 is the predictable paging burst (the known-plaintext
// foothold); the rest carry BurstPayloadMax-byte chunks of raw, the
// session's marshaled TPDU (hoisted to the caller so the batch encoder
// can marshal a shared TPDU once), which takes at most 255 bursts.
// Payloads are written in place into the appended bursts.
func appendSessionBursts(dst []RadioBurst, s *SMSSession, imsi IMSI, cell CellRef, raw []byte) []RadioBurst {
	total := SessionBurstCount(len(raw))
	cipher := s.Cipher
	if cipher == 0 {
		cipher = CipherA50
	}
	for seq := 0; seq < total; seq++ {
		dst = append(dst, RadioBurst{
			ARFCN:     s.ARFCN,
			Cell:      cell,
			Frame:     Count22(s.StartFrame + uint32(seq)),
			SessionID: s.SessionID,
			Seq:       uint8(seq),
			Total:     uint8(total),
			Encrypted: cipher.Encrypts(),
			Cipher:    cipher,
			IMSI:      imsi,
			RAND:      s.RAND,
		})
		b := &dst[len(dst)-1]
		if seq == 0 {
			fillPagingPlaintext(b.Payload[:], s.SessionID)
			b.PayloadLen = PagingPlaintextLen
		} else {
			b.PayloadLen = uint8(copy(b.Payload[:], raw[(seq-1)*BurstPayloadMax:]))
		}
	}
	return dst
}

// SessionKey computes the Kc a network created with the given seed
// would derive for subscriber imsi under challenge rnd, confined to
// space: SessionKeyFromKi over SubscriberKi, as Register and the
// authentication procedure derive it, so synthesized traffic (campaign
// radio batches) and live Network traffic agree on keys without
// registering millions of subscribers in one HLR. A caller deriving
// several epochs' keys for one subscriber derives Ki once and calls
// SessionKeyFromKi per epoch.
func SessionKey(seed int64, imsi string, rnd [16]byte, space a51.KeySpace) uint64 {
	return SessionKeyFromKi(SubscriberKi(seed, imsi), rnd, space)
}
