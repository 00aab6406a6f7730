package sniffer

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/gsmcodec"
	"github.com/actfort/actfort/internal/telecom"
)

// recycleSpace is the key space the rig-recycling tests encrypt and
// crack under: small enough to build its table in milliseconds.
var recycleSpace = a51.KeySpace{Base: 0xC118000000000000, Bits: 10}

var recycleTable = sync.OnceValues(func() (*a51.Table, error) {
	return a51.BuildTable(recycleSpace, a51.TableConfig{Frames: telecom.PagingFrames(), ChainLen: 2})
})

// recycleRig builds a rig backed by the campaign's cracker: a table
// over telecom.PagingFrames, resolved through batched chain replay.
func recycleRig(tb testing.TB) *Sniffer {
	tb.Helper()
	table, err := recycleTable()
	if err != nil {
		tb.Fatal(err)
	}
	return New(telecom.NewNetwork(telecom.Config{KeySpace: recycleSpace, Seed: 1}), Config{Cracker: table})
}

// dropBurst returns trace without the burst (sessionID, seq), so that
// session is still in flight when the trace ends.
func dropBurst(trace []telecom.RadioBurst, sessionID uint32, seq int) []telecom.RadioBurst {
	out := make([]telecom.RadioBurst, 0, len(trace))
	for _, b := range trace {
		if b.SessionID != sessionID || b.Seq != seq {
			out = append(out, b)
		}
	}
	return out
}

// TestCapturesSurviveReset: slices read out through Captures and
// DrainCaptures belong to the caller, so neither Reset (which clears
// the rig's capture storage in place) nor a later trace (which refills
// it) may change them.
func TestCapturesSurviveReset(t *testing.T) {
	s := recycleRig(t)
	s.FeedBatch(campaignTrace(t, 64, telecom.CipherA51, recycleSpace))
	viaCaptures := s.Captures()
	head := Capture{Text: "caller's own"}
	viaPrefixed := s.DrainCaptures([]Capture{head})
	if len(viaCaptures) != 64 {
		t.Fatalf("captured %d of 64 sessions: %+v", len(viaCaptures), s.Stats())
	}
	want := append([]Capture(nil), viaCaptures...)

	s.Reset()
	s.FeedBatch(campaignTrace(t, 32, telecom.CipherA50, recycleSpace))
	if n := len(s.Captures()); n != 32 {
		t.Fatalf("second trace captured %d of 32 sessions", n)
	}

	check := func(name string, got []Capture) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d captures after Reset, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: capture %d changed after Reset:\ngot  %+v\nwant %+v", name, i, got[i], want[i])
			}
		}
	}
	check("Captures", viaCaptures)
	if viaPrefixed[0] != head {
		t.Fatalf("DrainCaptures overwrote the caller's prefix: %+v", viaPrefixed[0])
	}
	check("DrainCaptures(prefix)", viaPrefixed[1:])
}

// TestRecycledRigMatchesFreshRigs cycles one rig through several traces
// (FeedBatch → DrainCaptures → Reset), as a campaign worker does shard
// after shard, and requires each trace's captures and Stats to equal
// those of a fresh rig fed the same trace. The sequence is chosen so
// that state surviving Reset would show: a repeated trace (stale Kc
// caches turn its cracks into cache hits), a session left in flight
// before traffic reusing its session ID under another cipher, and
// traces of different sizes over one capture slice.
func TestRecycledRigMatchesFreshRigs(t *testing.T) {
	a51Trace := campaignTrace(t, 256, telecom.CipherA51, recycleSpace)
	traces := []struct {
		name  string
		trace []telecom.RadioBurst
	}{
		{"a51-256", a51Trace},
		{"a51-256-again", a51Trace},
		{"a50-64", campaignTrace(t, 64, telecom.CipherA50, recycleSpace)},
		{"a51-100-lossy", dropBurst(campaignTrace(t, 100, telecom.CipherA51, recycleSpace), 99, 1)},
		{"a50-128", campaignTrace(t, 128, telecom.CipherA50, recycleSpace)},
		{"a53-32", campaignTrace(t, 32, telecom.CipherA53, recycleSpace)},
		{"a51-256-third", a51Trace},
	}
	recycled := recycleRig(t)
	var caps []Capture
	for _, tc := range traces {
		fresh := recycleRig(t)
		fresh.FeedBatch(tc.trace)
		recycled.FeedBatch(tc.trace)
		caps = recycled.DrainCaptures(caps[:0])

		if a, b := fresh.Stats(), recycled.Stats(); a != b {
			t.Errorf("%s: stats differ:\nfresh    %+v\nrecycled %+v", tc.name, a, b)
		}
		want := fresh.Captures()
		if len(want) != len(caps) {
			t.Fatalf("%s: capture counts differ: fresh %d recycled %d", tc.name, len(want), len(caps))
		}
		for i := range want {
			a, b := want[i], caps[i]
			a.CrackTime, b.CrackTime = 0, 0 // the only wall-clock field
			if a != b {
				t.Errorf("%s: capture %d differs:\nfresh    %+v\nrecycled %+v", tc.name, i, a, b)
			}
		}
		recycled.Reset()
	}
}

// TestConcurrentFeedBatch feeds one rig from several goroutines at
// once. Only one call can hold the rig's own scratch; the others build
// their own, and every session must still be decoded exactly once.
func TestConcurrentFeedBatch(t *testing.T) {
	const feeders, sessions = 4, 64
	s := recycleRig(t)
	var wg sync.WaitGroup
	for g := 0; g < feeders; g++ {
		trace := campaignTraceFrom(t, g*sessions, sessions, telecom.CipherA51, recycleSpace)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for half := 0; half < 2; half++ {
				s.FeedBatch(trace[half*len(trace)/2 : (half+1)*len(trace)/2])
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.MessagesDecoded != feeders*sessions || st.SessionsComplete != feeders*sessions {
		t.Fatalf("stats = %+v, want %d sessions decoded", st, feeders*sessions)
	}
	seen := make(map[uint32]bool)
	for _, c := range s.Captures() {
		if seen[c.SessionID] {
			t.Fatalf("session %d captured twice", c.SessionID)
		}
		seen[c.SessionID] = true
	}
	if len(seen) != feeders*sessions {
		t.Fatalf("captured %d distinct sessions, want %d", len(seen), feeders*sessions)
	}
}

// TestDrainCapturesKeepsCaches feeds one trace in three pieces,
// draining the captures after each, as a campaign radio stage does per
// chunk. A drain must empty the capture list and nothing else: the
// drained pieces concatenate to the captures of one call over the whole
// trace, the Stats after the last piece are that call's, and the Kc
// caches the cracks filled survive, so the trace fed again resolves
// every session from them without a crack.
func TestDrainCapturesKeepsCaches(t *testing.T) {
	trace := campaignTrace(t, 96, telecom.CipherA51, recycleSpace)
	whole := recycleRig(t)
	whole.FeedBatch(trace)
	want := whole.Captures()
	if len(want) != 96 {
		t.Fatalf("one-call rig captured %d of 96 sessions", len(want))
	}

	s := recycleRig(t)
	var got []Capture
	for _, cut := range [][2]int{{0, 100}, {100, 301}, {301, len(trace)}} {
		s.FeedBatch(trace[cut[0]:cut[1]])
		before := s.Stats()
		got = s.DrainCaptures(got)
		if n := len(s.Captures()); n != 0 {
			t.Fatalf("after draining bursts [%d, %d): %d captures left on the rig", cut[0], cut[1], n)
		}
		if after := s.Stats(); after != before {
			t.Fatalf("DrainCaptures moved Stats:\nbefore %+v\nafter  %+v", before, after)
		}
	}
	if a, b := whole.Stats(), s.Stats(); a != b {
		t.Errorf("stats differ:\none call %+v\npieces   %+v", a, b)
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d captures, one call recorded %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		a.CrackTime, b.CrackTime = 0, 0 // the only wall-clock field
		if a != b {
			t.Errorf("capture %d differs:\none call %+v\npieces   %+v", i, a, b)
		}
	}

	st := s.Stats()
	s.FeedBatch(trace)
	again := s.Stats()
	if again.CracksAttempted != st.CracksAttempted || again.CrackCacheHits != st.CrackCacheHits+96 {
		t.Fatalf("trace fed again after the drains: cracks %d → %d, cache hits %d → %d; want no crack and 96 hits",
			st.CracksAttempted, again.CracksAttempted, st.CrackCacheHits, again.CrackCacheHits)
	}
}

// TestRigCycleAllocs guards the steady-state shard cycle: once a rig
// has seen a trace, feeding it again, reading its captures into a
// reused slice and resetting it must allocate (nearly) nothing. A
// Reset that dropped the capture slice or the Kc maps instead of
// clearing them would regrow all three every cycle — dozens of
// allocations on this 256-session trace.
func TestRigCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random, so allocation counts are not steady")
	}
	trace := campaignTrace(t, 256, telecom.CipherA51, recycleSpace)
	s := recycleRig(t)
	var caps []Capture
	cycle := func() {
		s.FeedBatch(trace)
		caps = s.DrainCaptures(caps[:0])
		s.Reset()
	}
	cycle()
	if len(caps) != 256 {
		t.Fatalf("warm-up captured %d of 256 sessions", len(caps))
	}
	cycle()
	got := testing.AllocsPerRun(20, cycle)
	t.Logf("allocs per rig cycle: %v", got)
	if got > maxRigCycleAllocs {
		t.Fatalf("rig cycle allocates %v times, bound %d: something in FeedBatch, DrainCaptures or Reset stopped recycling its storage", got, maxRigCycleAllocs)
	}
}

// maxRigCycleAllocs bounds TestRigCycleAllocs. A cycle measures 2
// allocations (the keys and errors slices RecoverBatch returns); a
// Reset that drops only the capture slice measures 11, and one that
// also remakes the session and Kc maps measures 43.
const maxRigCycleAllocs = 6

// TestSessionSurvivesTraceReuse feeds the first half of a session from
// a pooled telecom.BurstBuffer, re-encodes the buffer with another
// message, then feeds the rest. The rig buffers its own copy of every
// burst, so the re-encode cannot reach the half-assembled session and
// the capture decodes to the first message.
func TestSessionSurvivesTraceReuse(t *testing.T) {
	otp := func(id uint32, text string) []telecom.SMSSession {
		imsi := fmt.Sprintf("imsi-%03d", id)
		rnd := [16]byte{byte(id)}
		return []telecom.SMSSession{{
			ARFCN:      512,
			CellID:     "reuse-cell",
			SessionID:  id,
			StartFrame: telecom.NextPagingStart(id * 64),
			Cipher:     telecom.CipherA51,
			Kc:         telecom.SessionKey(1, imsi, rnd, recycleSpace),
			IMSI:       imsi,
			RAND:       rnd,
			Deliver: gsmcodec.Deliver{
				Originator: "ActFort",
				Timestamp:  time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC),
				Text:       text,
			},
		}}
	}
	s := recycleRig(t)
	buf := telecom.AcquireBurstBuffer()
	defer buf.Release()
	trace, err := telecom.EncodeSMSBurstsInto(otp(1, "Code 845512"), buf)
	if err != nil {
		t.Fatal(err)
	}
	half := len(trace) / 2
	s.FeedBatch(trace[:half])
	rest := append([]telecom.RadioBurst(nil), trace[half:]...)
	if _, err := telecom.EncodeSMSBurstsInto(otp(2, "Code 000000"), buf); err != nil {
		t.Fatal(err)
	}
	s.FeedBatch(rest)
	st := s.Stats()
	if st.SessionsComplete != 1 || st.MessagesDecoded != 1 {
		t.Fatalf("stats = %+v, want the session complete and decoded", st)
	}
	if c := s.Captures(); len(c) != 1 || c[0].Text != "Code 845512" || c[0].SessionID != 1 {
		t.Fatalf("captures = %+v, want the first message", c)
	}
}
