package telecom

import (
	"fmt"

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

// SessionBurstCount returns how many radio bursts EncodeSMSBursts
// emits for a TPDU of rawLen marshaled bytes: the paging burst plus the
// payload chunks. Batch callers (the campaign engine) use it to lay out
// the COUNT schedule of millions of sessions from one shared TPDU
// without marshaling each session.
func SessionBurstCount(rawLen int) int {
	return 1 + (rawLen+burstChunk-1)/burstChunk
}

// appendSessionBursts lays out a session's bursts — plaintext payloads
// and final COUNT frame values, everything but the cipher pass — onto
// dst, shared by the scalar and batch encoders. raw is the session's
// marshaled TPDU (hoisted to the caller so batch encoders can marshal
// a shared TPDU once). grab supplies each payload buffer; every byte
// of a grabbed buffer is overwritten, so pooled callers may hand out
// recycled slab memory.
func appendSessionBursts(dst []RadioBurst, s *SMSSession, raw []byte, grab func(n int) []byte) ([]RadioBurst, CipherMode) {
	total := SessionBurstCount(len(raw))
	cipher := s.Cipher
	if cipher == 0 {
		cipher = CipherA50
	}
	for seq := 0; seq < total; seq++ {
		var payload []byte
		if seq == 0 {
			payload = grab(burstChunk)
			FillPagingPlaintext(payload, s.SessionID)
		} else {
			off := (seq - 1) * burstChunk
			end := off + burstChunk
			if end > len(raw) {
				end = len(raw)
			}
			payload = grab(end - off)
			copy(payload, raw[off:end])
		}
		dst = append(dst, RadioBurst{
			ARFCN:     s.ARFCN,
			CellID:    s.CellID,
			Frame:     Count22(s.StartFrame + uint32(seq)),
			SessionID: s.SessionID,
			Seq:       seq,
			Total:     total,
			Encrypted: cipher.Encrypts(),
			Cipher:    cipher,
			Payload:   payload,
			IMSI:      s.IMSI,
			RAND:      s.RAND,
		})
	}
	return dst, cipher
}

// plainBursts is appendSessionBursts with per-burst heap payloads — the
// layout step of the non-pooled encoders.
func plainBursts(s *SMSSession, raw []byte) ([]RadioBurst, CipherMode) {
	dst := make([]RadioBurst, 0, SessionBurstCount(len(raw)))
	return appendSessionBursts(dst, s, raw, func(n int) []byte { return make([]byte, n) })
}

// EncodeSMSBursts chunks the session's TPDU into radio bursts: burst 0
// is the predictable paging burst (the known-plaintext foothold), the
// rest carry burstChunk-byte payload slices, each encrypted under its
// own COUNT frame value when the session is ciphered.
func EncodeSMSBursts(s SMSSession) ([]RadioBurst, error) {
	raw, err := s.Deliver.Marshal()
	if err != nil {
		return nil, fmt.Errorf("telecom: encode SMS: %w", err)
	}
	bursts, cipher := plainBursts(&s, raw)
	for i := range bursts {
		switch cipher {
		case CipherA51:
			bursts[i].Payload = a51.EncryptBurst(s.Kc, bursts[i].Frame, bursts[i].Payload)
		case CipherA53:
			bursts[i].Payload = EncryptBurstA53(s.Kc, bursts[i].Frame, bursts[i].Payload)
		}
	}
	return bursts, nil
}

// SessionKey computes the Kc a network created with the given seed
// would derive for subscriber imsi under challenge rnd, confined to
// space. It mirrors Register's Ki derivation plus the COMP128
// stand-in, so synthesized traffic (campaign radio batches) and live
// Network traffic agree on keys without registering millions of
// subscribers in one HLR.
func SessionKey(seed int64, imsi string, rnd [16]byte, space a51.KeySpace) uint64 {
	return deriveKc(kiFor(seed, imsi), rnd, space)
}
