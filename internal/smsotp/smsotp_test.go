package smsotp

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/telecom"
)

// capture is a Sender that records the last delivered code.
type capture struct {
	dest, service, code string
	fail                error
	sends               int
}

func (c *capture) SendCode(destination, serviceName, code string) error {
	c.sends++
	if c.fail != nil {
		return c.fail
	}
	c.dest, c.service, c.code = destination, serviceName, code
	return nil
}

// Outstanding reports whether a code is pending for the pair (for
// tests and monitoring; it does not reveal the code).
func (s *Service) Outstanding(service, destination string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	iss, ok := s.pending[pendKey{service, destination}]
	return ok && !s.now().After(iss.expires)
}

func TestIssueAndVerify(t *testing.T) {
	s := New(WithSeed(42))
	snd := &capture{}
	if err := s.Issue("gmail", "+8613800000001", snd); err != nil {
		t.Fatal(err)
	}
	if len(snd.code) != 6 {
		t.Fatalf("code %q not 6 digits", snd.code)
	}
	if !s.Outstanding("gmail", "+8613800000001") {
		t.Error("code not outstanding after issue")
	}
	if err := s.Verify("gmail", "+8613800000001", snd.code); err != nil {
		t.Fatal(err)
	}
	// Consumed: second verify fails.
	if err := s.Verify("gmail", "+8613800000001", snd.code); !errors.Is(err, ErrNoCode) {
		t.Errorf("replay err = %v want ErrNoCode", err)
	}
}

func TestVerifyWrongCodeAndAttemptLimit(t *testing.T) {
	s := New(WithSeed(1))
	snd := &capture{}
	if err := s.Issue("svc", "d", snd); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify("svc", "d", "000000"); !errors.Is(err, ErrWrongCode) && snd.code != "000000" {
		t.Errorf("first wrong attempt err = %v", err)
	}
	if err := s.Verify("svc", "d", "111111"); !errors.Is(err, ErrWrongCode) && snd.code != "111111" {
		t.Errorf("second wrong attempt err = %v", err)
	}
	// Third failure exhausts the limit.
	if err := s.Verify("svc", "d", "222222"); !errors.Is(err, ErrTooManyAttempts) {
		t.Errorf("third wrong attempt err = %v want ErrTooManyAttempts", err)
	}
	// Even the right code is dead now.
	if err := s.Verify("svc", "d", snd.code); !errors.Is(err, ErrNoCode) {
		t.Errorf("post-exhaustion err = %v want ErrNoCode", err)
	}
}

func TestCorrectCodeWithinAttemptLimit(t *testing.T) {
	s := New(WithSeed(1))
	snd := &capture{}
	if err := s.Issue("svc", "d", snd); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify("svc", "d", "badbad"); !errors.Is(err, ErrWrongCode) {
		t.Fatal(err)
	}
	if err := s.Verify("svc", "d", snd.code); err != nil {
		t.Errorf("correct code after one failure rejected: %v", err)
	}
}

func TestExpiry(t *testing.T) {
	now := time.Date(2021, 4, 19, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	s := New(WithSeed(1), WithClock(clock))
	snd := &capture{}
	if err := s.Issue("svc", "d", snd); err != nil {
		t.Fatal(err)
	}
	now = now.Add(codeTTL + time.Minute)
	if s.Outstanding("svc", "d") {
		t.Error("expired code still outstanding")
	}
	if err := s.Verify("svc", "d", snd.code); !errors.Is(err, ErrExpired) {
		t.Errorf("err = %v want ErrExpired", err)
	}
}

func TestReissueReplacesCode(t *testing.T) {
	s := New(WithSeed(7))
	snd := &capture{}
	if err := s.Issue("svc", "d", snd); err != nil {
		t.Fatal(err)
	}
	first := snd.code
	if err := s.Issue("svc", "d", snd); err != nil {
		t.Fatal(err)
	}
	if snd.code == first {
		t.Fatal("reissue produced identical code (seeded RNG should advance)")
	}
	if err := s.Verify("svc", "d", first); errors.Is(err, nil) {
		t.Error("stale code accepted after reissue")
	}
	// Need a fresh issue since the failed verify consumed an attempt.
	if err := s.Issue("svc", "d", snd); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify("svc", "d", snd.code); err != nil {
		t.Errorf("fresh code rejected: %v", err)
	}
}

func TestRateLimit(t *testing.T) {
	now := time.Date(2021, 4, 19, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	s := New(WithSeed(1), WithClock(clock))
	snd := &capture{}
	for i := 0; i < rateMax; i++ {
		if err := s.Issue("svc", "d", snd); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Issue("svc", "d", snd); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("issue over the limit err = %v want ErrRateLimited", err)
	}
	// Other destinations are unaffected.
	if err := s.Issue("svc", "other", snd); err != nil {
		t.Errorf("unrelated destination rate-limited: %v", err)
	}
	// The window slides.
	now = now.Add(rateWindow + time.Minute)
	if err := s.Issue("svc", "d", snd); err != nil {
		t.Errorf("issue after window err = %v", err)
	}
}

func TestDeliveryFailureInvalidatesCode(t *testing.T) {
	s := New(WithSeed(1))
	snd := &capture{fail: errors.New("radio down")}
	err := s.Issue("svc", "d", snd)
	if err == nil || !strings.Contains(err.Error(), "radio down") {
		t.Fatalf("err = %v", err)
	}
	if s.Outstanding("svc", "d") {
		t.Error("undelivered code left outstanding")
	}
	if err := s.Issue("svc", "d", nil); err == nil {
		t.Error("nil sender accepted")
	}
}

func TestServiceScoping(t *testing.T) {
	s := New(WithSeed(3))
	a, b := &capture{}, &capture{}
	if err := s.Issue("gmail", "d", a); err != nil {
		t.Fatal(err)
	}
	if err := s.Issue("paypal", "d", b); err != nil {
		t.Fatal(err)
	}
	// Gmail's code must not verify for PayPal.
	if a.code != b.code {
		if err := s.Verify("paypal", "d", a.code); errors.Is(err, nil) {
			t.Error("cross-service code accepted")
		}
	}
	if err := s.Verify("gmail", "d", a.code); err != nil {
		t.Errorf("gmail verify: %v", err)
	}
}

func TestCodeLength(t *testing.T) {
	s := New(WithSeed(1))
	snd := &capture{}
	if err := s.Issue("svc", "d", snd); err != nil {
		t.Fatal(err)
	}
	if len(snd.code) != codeLen {
		t.Errorf("code length = %d want %d", len(snd.code), codeLen)
	}
	for _, c := range snd.code {
		if c < '0' || c > '9' {
			t.Errorf("non-digit %q in code", c)
		}
	}
}

// The paper's core loop: a service issues a code over GSM SMS, and the
// code that lands in the victim's inbox verifies.
func TestTelecomSenderEndToEnd(t *testing.T) {
	n := telecom.NewNetwork(telecom.Config{KeySpace: a51.KeySpace{Bits: 8}, Seed: 1})
	cell, _ := n.AddCell(telecom.Cell{ID: "c", ARFCNs: []int{512}, Cipher: telecom.CipherA51})
	sub, _ := n.Register("imsi-1", "+8613800000001")
	term, _ := n.NewTerminal(sub, telecom.RATGSM)
	if err := term.Attach(cell); err != nil {
		t.Fatal(err)
	}
	s := New(WithSeed(9))
	sender := &TelecomSender{Net: n, Originator: "Google"}
	if err := s.Issue("Google", sub.MSISDN, sender); err != nil {
		t.Fatal(err)
	}
	msg, ok := term.LastSMS()
	if !ok {
		t.Fatal("no SMS delivered")
	}
	if msg.Originator != "Google" || !strings.Contains(msg.Text, "verification code") {
		t.Errorf("SMS = %+v", msg)
	}
	// Extract the 6-digit code from the text like an attacker would.
	var code string
	for i := 0; i+6 <= len(msg.Text); i++ {
		if allDigits(msg.Text[i : i+6]) {
			code = msg.Text[i : i+6]
			break
		}
	}
	if code == "" {
		t.Fatalf("no code found in %q", msg.Text)
	}
	if err := s.Verify("Google", sub.MSISDN, code); err != nil {
		t.Errorf("intercepted code rejected: %v", err)
	}
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func TestTelecomSenderErrors(t *testing.T) {
	var s TelecomSender
	if err := s.SendCode("d", "svc", "123"); err == nil {
		t.Error("nil network accepted")
	}
	n := telecom.NewNetwork(telecom.Config{KeySpace: a51.KeySpace{Bits: 8}})
	s2 := TelecomSender{Net: n}
	if err := s2.SendCode("+860000", "svc", "123"); err == nil {
		t.Error("unknown destination accepted")
	}
}

func BenchmarkIssueVerify(b *testing.B) {
	// Each issue lands in a fresh rate window, so the limit never trips.
	now := time.Now()
	s := New(WithSeed(1), WithClock(func() time.Time { return now }))
	snd := &capture{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = now.Add(rateWindow)
		if err := s.Issue("svc", "d", snd); err != nil {
			b.Fatal(err)
		}
		if err := s.Verify("svc", "d", snd.code); err != nil {
			b.Fatal(err)
		}
	}
}
