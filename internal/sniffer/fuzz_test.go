package sniffer

import (
	"encoding/binary"
	"testing"

	"github.com/actfort/actfort/internal/telecom"
)

// fuzzBurstBytes is the width of one burst in a fuzz input: session ID,
// Seq, Total, PayloadLen, a flags byte (Cipher in bits 0–1, Encrypted
// in bit 2, an IMSI present in bit 3), the frame and the inline
// payload.
const fuzzBurstBytes = 5 + 4 + telecom.BurstPayloadMax

// fuzzMaxBursts keeps fuzz traces short: a few sessions' worth.
const fuzzMaxBursts = 32

// fuzzTrace decodes fuzz bytes into a burst trace, one burst per
// fuzzBurstBytes.
func fuzzTrace(data []byte) []telecom.RadioBurst {
	var trace []telecom.RadioBurst
	for len(data) >= fuzzBurstBytes && len(trace) < fuzzMaxBursts {
		r := data[:fuzzBurstBytes]
		data = data[fuzzBurstBytes:]
		b := telecom.RadioBurst{
			ARFCN:      512,
			SessionID:  uint32(r[0]),
			Seq:        r[1],
			Total:      r[2],
			PayloadLen: r[3],
			Cipher:     telecom.CipherMode(r[4] & 3),
			Encrypted:  r[4]&4 != 0,
			Frame:      binary.BigEndian.Uint32(r[5:9]),
		}
		if r[4]&8 != 0 {
			b.IMSI, _ = telecom.MakeIMSI("imsi-001")
		}
		copy(b.Payload[:], r[9:])
		trace = append(trace, b)
	}
	return trace
}

// fuzzBytes is fuzzTrace's inverse, for seeding the corpus with real
// encoded traffic.
func fuzzBytes(trace []telecom.RadioBurst) []byte {
	var out []byte
	for _, b := range trace {
		flags := byte(b.Cipher) & 3
		if b.Encrypted {
			flags |= 4
		}
		if !b.IMSI.IsZero() {
			flags |= 8
		}
		out = append(out, byte(b.SessionID), b.Seq, b.Total, b.PayloadLen, flags)
		out = binary.BigEndian.AppendUint32(out, b.Frame)
		out = append(out, b.Payload[:]...)
	}
	return out
}

// FuzzFeedBatch replays arbitrary burst traces — any SessionID, Seq,
// Total, PayloadLen, payload, Cipher and Encrypted flag — into a rig.
// No trace may panic it, every burst counts in BurstsSeen, and
// FeedBatch agrees with burst-by-burst Feed on the statistics.
func FuzzFeedBatch(f *testing.F) {
	genuine := campaignTrace(f, 1, telecom.CipherA51, recycleSpace)
	seed := recycleRig(f)
	seed.FeedBatch(fuzzTrace(fuzzBytes(genuine)))
	if st := seed.Stats(); st.MessagesDecoded != 1 {
		f.Fatalf("seed session did not decode through the fuzz encoding: %+v", st)
	}
	f.Add(fuzzBytes(genuine))
	f.Add(fuzzBytes(campaignTrace(f, 2, telecom.CipherA50, recycleSpace)))
	for _, n := range []uint8{telecom.BurstPayloadMax + 1, 255} {
		bad := append([]telecom.RadioBurst(nil), genuine...)
		bad[1].PayloadLen = n
		f.Add(fuzzBytes(bad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		trace := fuzzTrace(data)
		batch := recycleRig(t)
		batch.FeedBatch(trace)
		st := batch.Stats()
		if st.BurstsSeen != len(trace) {
			t.Fatalf("BurstsSeen = %d, want %d", st.BurstsSeen, len(trace))
		}
		if st.MessagesDecoded > st.SessionsComplete {
			t.Fatalf("decoded %d of %d complete sessions", st.MessagesDecoded, st.SessionsComplete)
		}
		feed := recycleRig(t)
		for _, b := range trace {
			feed.Feed(b)
		}
		if fs := feed.Stats(); fs != st {
			t.Fatalf("stats differ:\nfeed  %+v\nbatch %+v", fs, st)
		}
	})
}
