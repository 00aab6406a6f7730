package telecom

import (
	"testing"

	"github.com/actfort/actfort/internal/gsmcodec"
)

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
	bursts, err := EncodeSMSBursts(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := SessionBurstCount(len(raw)); got != len(bursts) {
		t.Errorf("SessionBurstCount(%d) = %d, encoder emitted %d bursts", len(raw), got, len(bursts))
	}
}
