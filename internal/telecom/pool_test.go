package telecom

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/gsmcodec"
)

// poolTestSessions builds n sessions across cipher modes, TPDU lengths
// and (optionally) distinct Delivers.
func poolTestSessions(rng *rand.Rand, n int, sharedTPDU bool) []SMSSession {
	modes := []CipherMode{0, CipherA50, CipherA51, CipherA53}
	sessions := make([]SMSSession, n)
	frame := uint32(0)
	for i := range sessions {
		text := "Code 845512"
		if !sharedTPDU {
			text = strings.Repeat("Code 845512 ", 1+rng.Intn(8))
		}
		start := NextPagingStart(frame)
		var rnd [16]byte
		rng.Read(rnd[:])
		sessions[i] = SMSSession{
			ARFCN:      512 + rng.Intn(4),
			CellID:     "pool-cell",
			SessionID:  uint32(i),
			StartFrame: start,
			Cipher:     modes[rng.Intn(len(modes))],
			Kc:         rng.Uint64(),
			IMSI:       fmt.Sprintf("46000%05d", i),
			RAND:       rnd,
			Deliver: gsmcodec.Deliver{
				Originator: "ActFort",
				Timestamp:  time.Date(2021, 4, 19, 12, 0, 0, 0, time.UTC),
				Text:       text,
			},
		}
		frame = start + 12
	}
	return sessions
}

// TestEncodeSMSBurstsIntoMatchesScalar pins the pooled flat encoder at
// the layer that owns the contract: for every session, the bursts
// EncodeSMSBurstsInto appends to the flat trace must be byte-identical
// to per-session EncodeSMSBursts — across cipher modes, shared and
// distinct TPDUs, and ragged batch sizes straddling the 64-lane block
// boundary.
func TestEncodeSMSBurstsIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	buf := AcquireBurstBuffer()
	defer buf.Release()
	for _, shared := range []bool{true, false} {
		for _, n := range []int{1, 5, 64, 71, 200} {
			sessions := poolTestSessions(rng, n, shared)
			flat, err := EncodeSMSBurstsInto(sessions, buf)
			if err != nil {
				t.Fatalf("shared=%v n=%d: pooled encode: %v", shared, n, err)
			}
			off := 0
			for i := range sessions {
				want, err := EncodeSMSBursts(sessions[i])
				if err != nil {
					t.Fatalf("shared=%v n=%d session %d: scalar encode: %v", shared, n, i, err)
				}
				if off+len(want) > len(flat) {
					t.Fatalf("shared=%v n=%d: flat trace too short at session %d", shared, n, i)
				}
				got := flat[off : off+len(want)]
				if !reflect.DeepEqual([]RadioBurst(got), want) {
					t.Fatalf("shared=%v n=%d session %d (cipher %v): pooled and scalar bursts differ:\npooled %+v\nscalar %+v",
						shared, n, i, sessions[i].Cipher, got, want)
				}
				off += len(want)
			}
			if off != len(flat) {
				t.Fatalf("shared=%v n=%d: flat trace has %d trailing bursts", shared, n, len(flat)-off)
			}
		}
	}
}

// TestBurstBufferReuseInvalidatesPreviousCall pins the aliasing
// contract: each EncodeSMSBurstsInto call may recycle the previous
// call's memory, and the new call's bursts must be correct even though
// the buffer was filled with different traffic before — the
// shard-over-shard reuse pattern of campaign workers.
func TestBurstBufferReuseInvalidatesPreviousCall(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	buf := AcquireBurstBuffer()
	defer buf.Release()
	// Warm the buffer with a large batch, then encode a different,
	// smaller batch into the same buffer and check against scalar.
	if _, err := EncodeSMSBurstsInto(poolTestSessions(rng, 150, false), buf); err != nil {
		t.Fatal(err)
	}
	sessions := poolTestSessions(rng, 40, true)
	flat, err := EncodeSMSBurstsInto(sessions, buf)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := range sessions {
		want, err := EncodeSMSBursts(sessions[i])
		if err != nil {
			t.Fatal(err)
		}
		got := flat[off : off+len(want)]
		if !reflect.DeepEqual([]RadioBurst(got), want) {
			t.Fatalf("session %d differs after buffer reuse:\npooled %+v\nscalar %+v", i, got, want)
		}
		off += len(want)
	}
}

// TestEncodeSMSBurstsIntoError pins the loud failure mode: one
// unencodable TPDU fails the whole batch, naming the session.
func TestEncodeSMSBurstsIntoError(t *testing.T) {
	buf := AcquireBurstBuffer()
	defer buf.Release()
	sessions := []SMSSession{
		{Deliver: gsmcodec.Deliver{Originator: "ok", Text: "fine"}},
		{Deliver: gsmcodec.Deliver{Originator: "ok", Text: "☃ not in GSM 03.38"}},
	}
	if _, err := EncodeSMSBurstsInto(sessions, buf); err == nil {
		t.Fatal("unencodable session accepted")
	} else if !strings.Contains(err.Error(), "session 1") {
		t.Fatalf("error does not name the failing session: %v", err)
	}
}

// TestEncodeSMSBurstsIntoA53Isolation checks that an A5/3 session's
// keystream does not depend on unrelated sessions in the batch: alone
// and inside a mixed batch it encodes the same. (The bitsliced lanes
// only carry A5/1 work; this guards the bookkeeping.)
func TestEncodeSMSBurstsIntoA53Isolation(t *testing.T) {
	buf := AcquireBurstBuffer()
	defer buf.Release()
	a53 := SMSSession{
		SessionID: 7, Cipher: CipherA53, Kc: 0xC118000000000042,
		Deliver: gsmcodec.Deliver{Originator: "ActFort", Text: "Code 845512"},
	}
	alone, err := EncodeSMSBurstsInto([]SMSSession{a53}, buf)
	if err != nil {
		t.Fatal(err)
	}
	// The next call recycles buf: keep deep copies.
	alone = append([]RadioBurst(nil), alone...)
	for i := range alone {
		alone[i].Payload = append([]byte(nil), alone[i].Payload...)
	}
	mixed, err := EncodeSMSBurstsInto([]SMSSession{
		{SessionID: 1, Cipher: CipherA51, Kc: 1, Deliver: gsmcodec.Deliver{Originator: "x", Text: "y"}},
		a53,
	}, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alone, mixed[len(mixed)-len(alone):]) {
		t.Fatal("A5/3 session bursts differ between lone and mixed batches")
	}
}

// BenchmarkEncodeSMSBursts compares the per-session encoder the live
// Network uses with the pooled 64-lane batch encoder the campaign
// engine uses, on 256 campaign-shaped sessions sharing one OTP TPDU.
func BenchmarkEncodeSMSBursts(b *testing.B) {
	sessions := poolTestSessions(rand.New(rand.NewSource(29)), 256, true)
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range sessions {
				if _, err := EncodeSMSBursts(s); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(sessions))*float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
	})
	b.Run("batch", func(b *testing.B) {
		buf := AcquireBurstBuffer()
		defer buf.Release()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EncodeSMSBurstsInto(sessions, buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(sessions))*float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
	})
}
