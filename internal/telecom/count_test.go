package telecom

import (
	"testing"

	"github.com/actfort/actfort/internal/a51"
)

// TestCount22Structure pins the 51×26 COUNT mapping: T3 in bits 10..5,
// T2 in bits 4..0, periodic with the reduced hyperframe.
func TestCount22Structure(t *testing.T) {
	for _, fn := range []uint32{0, 1, 25, 26, 50, 51, 52, 1325, 1326, 99999} {
		c := Count22(fn)
		if t3 := c >> 5; t3 != fn%a51.Multi51 {
			t.Errorf("Count22(%d) T3 = %d want %d", fn, t3, fn%a51.Multi51)
		}
		if t2 := c & 31; t2 != fn%a51.Multi26 {
			t.Errorf("Count22(%d) T2 = %d want %d", fn, t2, fn%a51.Multi26)
		}
		if c != Count22(fn+a51.HyperPeriod) {
			t.Errorf("Count22 not periodic at %d", fn)
		}
	}
	// CRT: within one hyperframe every frame gets a distinct COUNT.
	seen := make(map[uint32]uint32, a51.HyperPeriod)
	for fn := uint32(0); fn < a51.HyperPeriod; fn++ {
		c := Count22(fn)
		if prev, dup := seen[c]; dup {
			t.Fatalf("frames %d and %d share COUNT %d", prev, fn, c)
		}
		seen[c] = fn
	}
}

// TestPagingSchedule checks the CCCH alignment helpers: NextPagingStart
// lands on a paging block, and PagingFrames covers exactly the COUNT
// values paging bursts can be ciphered under.
func TestPagingSchedule(t *testing.T) {
	frames := PagingFrames()
	if len(frames) != 9*a51.Multi26 {
		t.Fatalf("paging frame classes = %d want %d", len(frames), 9*a51.Multi26)
	}
	covered := make(map[uint32]bool, len(frames))
	for _, f := range frames {
		covered[f] = true
	}
	for fn := uint32(0); fn < 3*a51.HyperPeriod; fn += 7 {
		start := NextPagingStart(fn)
		if start < fn {
			t.Fatalf("NextPagingStart(%d) = %d went backwards", fn, start)
		}
		if !a51.IsPagingStart(start) {
			t.Fatalf("NextPagingStart(%d) = %d is not a paging block", fn, start)
		}
		if !covered[Count22(start)] {
			t.Fatalf("paging COUNT %d (frame %d) outside PagingFrames", Count22(start), start)
		}
	}
}

// encryptBurstA53 is xorBurstA53 into a fresh copy of payload.
func encryptBurstA53(kc uint64, frame uint32, payload []byte) []byte {
	out := append([]byte(nil), payload...)
	xorBurstA53(kc, frame, out)
	return out
}

// TestEncryptBurstA53 checks XOR symmetry and that the keystream
// differs from A5/1's (the upgrade actually changes the cipher).
func TestEncryptBurstA53(t *testing.T) {
	payload := []byte("PAGINGREQ1-known-plaintext")
	const kc, frame = 0xC118000000000042, 38
	ct := encryptBurstA53(kc, frame, payload)
	if string(ct) == string(payload) {
		t.Fatal("A5/3 stand-in did not encrypt")
	}
	back := encryptBurstA53(kc, frame, ct)
	if string(back) != string(payload) {
		t.Fatalf("round trip = %q", back)
	}
	if string(encryptBurstA53(kc, frame+1, payload)) == string(ct) {
		t.Fatal("A5/3 keystream ignores the frame number")
	}
}

// TestCellMixMode pins the draw mapping.
func TestCellMixMode(t *testing.T) {
	mix := CellMix{A50: 0.2, A53: 0.3}
	for _, tc := range []struct {
		u    float64
		want CipherMode
	}{
		{0.0, CipherA50}, {0.19, CipherA50},
		{0.2, CipherA53}, {0.49, CipherA53},
		{0.5, CipherA51}, {0.99, CipherA51},
	} {
		if got := mix.Mode(tc.u); got != tc.want {
			t.Errorf("Mode(%g) = %v want %v", tc.u, got, tc.want)
		}
	}
}

// TestSendSMSPagingAlignment checks the live network schedules every
// session's paging burst on a CCCH block, so table backends cover it.
func TestSendSMSPagingAlignment(t *testing.T) {
	n := NewNetwork(Config{Seed: 3})
	cell, err := n.AddCell(Cell{ID: "c", ARFCNs: []int{512}, Cipher: CipherA51})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.Register("460000000000031", "+8613800000031")
	if err != nil {
		t.Fatal(err)
	}
	term, err := n.NewTerminal(sub, RATGSM)
	if err != nil {
		t.Fatal(err)
	}
	if err := term.Attach(cell); err != nil {
		t.Fatal(err)
	}
	covered := make(map[uint32]bool)
	for _, f := range PagingFrames() {
		covered[f] = true
	}
	var pagingFrames []uint32
	cancel := n.Subscribe(512, func(b RadioBurst) {
		if b.Seq == 0 {
			pagingFrames = append(pagingFrames, b.Frame)
		}
	})
	defer cancel()
	for i := 0; i < 8; i++ {
		if _, err := n.SendSMS("Svc", sub.MSISDN, "code 845512"); err != nil {
			t.Fatal(err)
		}
	}
	if len(pagingFrames) != 8 {
		t.Fatalf("paging bursts = %d", len(pagingFrames))
	}
	for i, f := range pagingFrames {
		if !covered[f] {
			t.Errorf("session %d paging COUNT %d outside the paging frame classes", i, f)
		}
	}
}

// TestSendSMSA53Cell checks A5/3 cells deliver to the terminal but
// mark bursts with the upgraded cipher.
func TestSendSMSA53Cell(t *testing.T) {
	n := NewNetwork(Config{Seed: 5})
	cell, err := n.AddCell(Cell{ID: "c", ARFCNs: []int{512}, Cipher: CipherA53})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.Register("460000000000032", "+8613800000032")
	if err != nil {
		t.Fatal(err)
	}
	term, err := n.NewTerminal(sub, RATGSM)
	if err != nil {
		t.Fatal(err)
	}
	if err := term.Attach(cell); err != nil {
		t.Fatal(err)
	}
	var bursts []RadioBurst
	cancel := n.Subscribe(512, func(b RadioBurst) { bursts = append(bursts, b) })
	defer cancel()
	transport, err := n.SendSMS("Svc", sub.MSISDN, "code 845512")
	if err != nil {
		t.Fatal(err)
	}
	if transport != "gsm:A5/3" {
		t.Fatalf("transport = %q", transport)
	}
	if msg, ok := term.LastSMS(); !ok || msg.Text != "code 845512" {
		t.Fatalf("terminal delivery = %v %v", msg, ok)
	}
	if len(bursts) == 0 {
		t.Fatal("no bursts on the air")
	}
	for _, b := range bursts {
		if b.Cipher != CipherA53 || !b.Encrypted {
			t.Fatalf("burst cipher = %v encrypted = %v", b.Cipher, b.Encrypted)
		}
	}
}
