package telecom

import (
	"fmt"
	"testing"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/gsmcodec"
)

// refEncodeSMSBursts is the per-session reference encoder the batch
// encoder is held against: it lays the session out alone and ciphers
// each burst with the scalar A5/1 cipher (or the A5/3 stand-in) under
// its own COUNT frame value.
func refEncodeSMSBursts(s SMSSession) ([]RadioBurst, error) {
	raw, err := s.Deliver.Marshal()
	if err != nil {
		return nil, fmt.Errorf("telecom: encode SMS: %w", err)
	}
	imsi, err := MakeIMSI(s.IMSI)
	if err != nil {
		return nil, err
	}
	cell, err := cellRefOf(s.CellID)
	if err != nil {
		return nil, err
	}
	dst := make([]RadioBurst, 0, SessionBurstCount(len(raw)))
	bursts := appendSessionBursts(dst, &s, imsi, cell, raw)
	for i := range bursts {
		b := &bursts[i]
		switch b.Cipher {
		case CipherA51:
			copy(b.Payload[:], encryptBurstA51(s.Kc, b.Frame, b.Bytes()))
		case CipherA53:
			copy(b.Payload[:], encryptBurstA53(s.Kc, b.Frame, b.Bytes()))
		}
	}
	return bursts, nil
}

// encryptBurstA51 is the scalar A5/1 reference for one burst: a fresh
// cipher's downlink keystream for (kc, frame), cycled over payload into
// a fresh copy.
func encryptBurstA51(kc uint64, frame uint32, payload []byte) []byte {
	down, _ := a51.New(kc, frame).KeystreamBurst()
	out := make([]byte, len(payload))
	for i := range payload {
		out[i] = payload[i] ^ down[i%a51.BurstBytes]
	}
	return out
}

// decryptBurstA51 decrypts one captured burst the way the sniffer does,
// through a51.EncryptBurstsBatch with a batch of one, into a fresh copy.
func decryptBurstA51(kc uint64, b RadioBurst) []byte {
	out := append([]byte(nil), b.Bytes()...)
	a51.EncryptBurstsBatch([]uint64{kc}, []uint32{b.Frame}, [][]byte{out})
	return out
}

// TestSessionBurstCount pins the schedule arithmetic batch callers use
// in place of per-session marshaling.
func TestSessionBurstCount(t *testing.T) {
	for _, tc := range []struct{ rawLen, want int }{
		{0, 1}, {1, 2}, {14, 2}, {15, 3}, {28, 3}, {29, 4},
	} {
		if got := SessionBurstCount(tc.rawLen); got != tc.want {
			t.Errorf("SessionBurstCount(%d) = %d, want %d", tc.rawLen, got, tc.want)
		}
	}
	// And it must agree with what the encoder actually emits.
	s := SMSSession{Deliver: gsmcodec.Deliver{Originator: "ActFort", Text: "Code 845512"}}
	raw, err := s.Deliver.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bursts, err := EncodeSMSBurstsInto([]SMSSession{s}, new(BurstBuffer))
	if err != nil {
		t.Fatal(err)
	}
	if got := SessionBurstCount(len(raw)); got != len(bursts) {
		t.Errorf("SessionBurstCount(%d) = %d, encoder emitted %d bursts", len(raw), got, len(bursts))
	}
}
