package sniffer

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/gsmcodec"
	"github.com/actfort/actfort/internal/telecom"
)

// recordSMS sends one SMS over the rig network and returns its bursts,
// recorded without a tuned sniffer.
func recordSMS(t *testing.T, n *telecom.Network, sub *telecom.Subscriber, from, text string) []telecom.RadioBurst {
	t.Helper()
	var bursts []telecom.RadioBurst
	for _, a := range []int{512, 513, 514} {
		cancel := n.Subscribe(a, func(b telecom.RadioBurst) { bursts = append(bursts, b) })
		defer cancel()
	}
	if _, err := n.SendSMS(from, sub.MSISDN, text); err != nil {
		t.Fatal(err)
	}
	return bursts
}

// feedBothWays runs trace through burst-by-burst Feed and through one
// FeedBatch on two fresh rigs, fails unless both agree on statistics
// and captures, and returns the FeedBatch rig.
func feedBothWays(t *testing.T, n *telecom.Network, trace []telecom.RadioBurst) *Sniffer {
	t.Helper()
	feed := New(n, Config{})
	for _, b := range trace {
		feed.Feed(b)
	}
	batch := New(n, Config{})
	batch.FeedBatch(trace)
	if a, b := feed.Stats(), batch.Stats(); a != b {
		t.Errorf("stats differ:\nfeed  %+v\nbatch %+v", a, b)
	}
	fc, bc := feed.Captures(), batch.Captures()
	if len(fc) != len(bc) {
		t.Fatalf("capture counts differ: feed %d batch %d", len(fc), len(bc))
	}
	for i := range fc {
		a, b := fc[i], bc[i]
		a.CrackTime, b.CrackTime = 0, 0 // the only wall-clock field
		if a != b {
			t.Errorf("capture %d differs:\nfeed  %+v\nbatch %+v", i, a, b)
		}
	}
	return batch
}

// TestFeedBatchMalformedBursts: bursts that do not fit their session —
// Seq outside [0, Total), a first-seen Total that is not positive or
// exceeds maxSessionBursts, a PayloadLen beyond the inline payload —
// are counted and dropped, and a duplicate Seq overwrites its slot without counting again (the last copy wins).
// None may panic or yield a capture, and FeedBatch must agree with
// burst-by-burst Feed.
func TestFeedBatchMalformedBursts(t *testing.T) {
	n, sub, _ := rig(t, Config{})
	const text = "G-111222 is your code"
	good := recordSMS(t, n, sub, "Google", text)
	if len(good) < 3 {
		t.Fatalf("session has %d bursts, want a paging burst and ≥2 payload bursts", len(good))
	}
	total := len(good)

	// edit returns a copy of the session with mutate applied to it.
	edit := func(mutate func([]telecom.RadioBurst) []telecom.RadioBurst) []telecom.RadioBurst {
		return mutate(append([]telecom.RadioBurst(nil), good...))
	}
	withTotal := func(v uint8) []telecom.RadioBurst {
		return edit(func(bs []telecom.RadioBurst) []telecom.RadioBurst {
			for i := range bs {
				bs[i].Total = v
			}
			return bs
		})
	}
	corrupt := func(b telecom.RadioBurst) telecom.RadioBurst {
		p := b.Bytes()
		for i := range p {
			p[i] ^= 0xA5
		}
		return b
	}
	withPayloadLen := func(v uint8) []telecom.RadioBurst {
		return edit(func(bs []telecom.RadioBurst) []telecom.RadioBurst {
			bs[1].PayloadLen = v
			return bs
		})
	}

	for _, tc := range []struct {
		name  string
		trace []telecom.RadioBurst
	}{
		// The last payload burst arrives with Seq == Total: the session
		// lacks that slot and never completes.
		{"seq-at-total", edit(func(bs []telecom.RadioBurst) []telecom.RadioBurst {
			bs[total-1].Seq = uint8(total)
			return bs
		})},
		// Seq and Total are bytes: a negative value arrives as its
		// two's-complement byte, a huge one as a large byte.
		{"seq-negative", edit(func(bs []telecom.RadioBurst) []telecom.RadioBurst {
			bs[1].Seq = 0xFF // -1
			return bs
		})},
		{"seq-huge", edit(func(bs []telecom.RadioBurst) []telecom.RadioBurst {
			bs[1].Seq = 200
			return bs
		})},
		{"total-zero", withTotal(0)},
		{"total-negative", withTotal(0xFD)}, // -3
		{"total-above-cap", withTotal(maxSessionBursts + 1)},
		{"total-huge", withTotal(0xFF)},
		// A payload burst claims more bytes than it carries inline: it
		// is dropped, so the session never completes.
		{"payload-len-15", withPayloadLen(telecom.BurstPayloadMax + 1)},
		{"payload-len-255", withPayloadLen(255)},
		// A payload burst arrives twice and the paging burst is missing:
		// the repeat must not count toward completion.
		{"duplicate-not-counted", edit(func(bs []telecom.RadioBurst) []telecom.RadioBurst {
			return append(bs[1:], bs[1])
		})},
		// A corrupted copy of the paging burst follows the genuine one
		// and overwrites it before the session completes: no key
		// matches its keystream.
		{"duplicate-last-wins", edit(func(bs []telecom.RadioBurst) []telecom.RadioBurst {
			return append([]telecom.RadioBurst{bs[0], corrupt(bs[0])}, bs[1:]...)
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := feedBothWays(t, n, tc.trace)
			st := s.Stats()
			if st.BurstsSeen != len(tc.trace) {
				t.Errorf("BurstsSeen = %d, want %d", st.BurstsSeen, len(tc.trace))
			}
			if c := s.Captures(); len(c) != 0 {
				t.Errorf("captured %+v from a malformed trace", c)
			}
			if st.MessagesDecoded != 0 {
				t.Errorf("decoded %d messages from a malformed trace", st.MessagesDecoded)
			}
		})
	}

	// The mirror image of duplicate-last-wins: a corrupted payload copy
	// first, the genuine copy last. The session completes once and
	// decodes the genuine text.
	t.Run("duplicate-genuine-last", func(t *testing.T) {
		trace := edit(func(bs []telecom.RadioBurst) []telecom.RadioBurst {
			return append([]telecom.RadioBurst{corrupt(bs[1])}, bs...)
		})
		s := feedBothWays(t, n, trace)
		st := s.Stats()
		if st.BurstsSeen != len(trace) || st.SessionsComplete != 1 {
			t.Errorf("stats = %+v, want %d bursts seen and 1 session complete", st, len(trace))
		}
		if c := s.Captures(); len(c) != 1 || c[0].Text != text {
			t.Errorf("captures = %+v, want one with text %q", c, text)
		}
	})
}

// TestMaxSessionBurstsFitsLargestDeliver: the session-length cap must
// admit the largest TPDU gsmcodec marshals — the longest originator
// address and 160 septets of text — and such a message must still be
// intercepted end to end.
func TestMaxSessionBurstsFitsLargestDeliver(t *testing.T) {
	text := strings.Repeat("x", gsmcodec.MaxSeptets)
	ts := time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)
	for _, from := range []string{"+" + strings.Repeat("9", 20), "ABCDEFGHIJK"} {
		raw, err := gsmcodec.Deliver{Originator: from, Timestamp: ts, Text: text}.Marshal()
		if err != nil {
			t.Fatalf("largest Deliver from %q did not marshal: %v", from, err)
		}
		if got := telecom.SessionBurstCount(len(raw)); got > maxSessionBursts {
			t.Fatalf("%d-byte TPDU from %q needs %d bursts, cap is %d", len(raw), from, got, maxSessionBursts)
		}
	}
	if _, err := (gsmcodec.Deliver{Originator: "+" + strings.Repeat("9", 21), Timestamp: ts, Text: text}).Marshal(); err == nil {
		t.Fatal("a 21-digit originator marshaled: the largest Deliver above is not the largest")
	}
	if _, err := (gsmcodec.Deliver{Originator: "A", Timestamp: ts, Text: text + "x"}).Marshal(); err == nil {
		t.Fatal("161 septets of text marshaled: the largest Deliver above is not the largest")
	}

	n, sub, s := rig(t, Config{})
	if err := s.Tune(512, 513, 514); err != nil {
		t.Fatal(err)
	}
	from := "+" + strings.Repeat("9", 20)
	if _, err := n.SendSMS(from, sub.MSISDN, text); err != nil {
		t.Fatal(err)
	}
	if c := s.Captures(); len(c) != 1 || c[0].Text != text || c[0].Originator != from {
		t.Fatalf("captures = %+v, want the 160-septet message", c)
	}
}

// campaignTrace encodes a campaign-shaped trace: the campaign's OTP
// message delivered once to each of sessions distinct subscribers, every
// paging burst on a CCCH paging block, under cipher.
func campaignTrace(tb testing.TB, sessions int, cipher telecom.CipherMode, space a51.KeySpace) []telecom.RadioBurst {
	tb.Helper()
	return campaignTraceFrom(tb, 0, sessions, cipher, space)
}

// campaignTraceFrom is campaignTrace for subscribers (and session IDs)
// first, first+1, ….
func campaignTraceFrom(tb testing.TB, first, sessions int, cipher telecom.CipherMode, space a51.KeySpace) []telecom.RadioBurst {
	tb.Helper()
	deliver := gsmcodec.Deliver{
		Originator: "ActFort",
		Timestamp:  time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC),
		Text:       "Code 845512",
	}
	batch := make([]telecom.SMSSession, sessions)
	frame := uint32(0)
	for k := range batch {
		i := first + k
		imsi := fmt.Sprintf("4600000%08d", i)
		var rnd [16]byte
		rnd[0], rnd[1] = byte(i), byte(i>>8)
		start := telecom.NextPagingStart(frame)
		batch[k] = telecom.SMSSession{
			ARFCN:      512,
			CellID:     "campaign-cell",
			SessionID:  uint32(i),
			StartFrame: start,
			Cipher:     cipher,
			Kc:         telecom.SessionKey(1, imsi, rnd, space),
			IMSI:       imsi,
			RAND:       rnd,
			Deliver:    deliver,
		}
		frame = start + 8
	}
	trace, err := telecom.EncodeSMSBurstsInto(batch, new(telecom.BurstBuffer))
	if err != nil {
		tb.Fatal(err)
	}
	return trace
}

// BenchmarkFeedBatch reports the sniffer's own per-burst cost —
// reassembly, payload decryption and TPDU decoding, without key
// recovery — on a 256-session campaign-shaped trace. The A5/1 rig is
// warmed by one pass, so every session resolves from the Kc cache; the
// A5/0 row has no cipher work at all and isolates reassembly and
// decoding. A filter that matches nothing keeps the capture list from
// growing across iterations.
func BenchmarkFeedBatch(b *testing.B) {
	space := a51.KeySpace{Base: 0xC118000000000000, Bits: 10}
	for _, bc := range []struct {
		name   string
		cipher telecom.CipherMode
	}{{"a51", telecom.CipherA51}, {"a50", telecom.CipherA50}} {
		b.Run("cipher="+bc.name, func(b *testing.B) {
			trace := campaignTrace(b, 256, bc.cipher, space)
			net := telecom.NewNetwork(telecom.Config{KeySpace: space, Seed: 1})
			s := New(net, Config{Filter: MustFilter(`sms.src == "nobody"`)})
			s.FeedBatch(trace) // crack once; later passes hit the Kc cache
			if st := s.Stats(); st.MessagesDecoded != 256 {
				b.Fatalf("warm-up decoded %d of 256 sessions: %+v", st.MessagesDecoded, st)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.FeedBatch(trace)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/burst")
		})
	}
}
