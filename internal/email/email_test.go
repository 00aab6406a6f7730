package email

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestMailboxLifecycle(t *testing.T) {
	s := NewServer()
	if err := s.CreateMailbox("alice@mail.example"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateMailbox("alice@mail.example"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate err = %v", err)
	}
	if err := s.CreateMailbox("not-an-address"); err == nil {
		t.Error("invalid address accepted")
	}
	if err := s.CreateMailbox(""); err == nil {
		t.Error("empty address accepted")
	}
	if _, err := s.Inbox("alice@mail.example"); err != nil {
		t.Errorf("created mailbox missing: %v", err)
	}
	if _, err := s.Inbox("bob@mail.example"); !errors.Is(err, ErrNoMailbox) {
		t.Errorf("uncreated mailbox err = %v", err)
	}
}

func TestDeliverAndInbox(t *testing.T) {
	s := NewServer()
	if err := s.CreateMailbox("a@x.example"); err != nil {
		t.Fatal(err)
	}
	if err := s.Deliver(Message{From: "p@y.example", To: "nobody@x.example", Body: "hi"}); !errors.Is(err, ErrNoMailbox) {
		t.Errorf("deliver to missing box err = %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Deliver(Message{From: "p@y.example", To: "a@x.example", Subject: "s", Body: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	box, err := s.Inbox("a@x.example")
	if err != nil {
		t.Fatal(err)
	}
	if len(box) != 3 {
		t.Fatalf("inbox = %d messages", len(box))
	}
	for i := 1; i < len(box); i++ {
		if box[i].Seq <= box[i-1].Seq {
			t.Error("messages out of order")
		}
	}
	if _, err := s.Inbox("nobody@x.example"); !errors.Is(err, ErrNoMailbox) {
		t.Errorf("inbox of missing box err = %v", err)
	}
}

func TestExtractCode(t *testing.T) {
	cases := []struct {
		body string
		want string
		ok   bool
	}{
		{"Your PayPal verification code is 845512. It expires soon.", "845512", true},
		{"PIN: 0042", "0042", true},
		{"Use 12345678 now", "12345678", true},
		{"order #123 shipped", "", false},      // 3 digits: not a code
		{"call +8613800000001 now", "", false}, // embedded in longer run
		{"no digits here", "", false},
	}
	for _, c := range cases {
		got, ok := ExtractCode(c.body)
		if ok != c.ok || got != c.want {
			t.Errorf("ExtractCode(%q) = %q,%v want %q,%v", c.body, got, ok, c.want, c.ok)
		}
	}
}

func TestCodeSender(t *testing.T) {
	s := NewServer()
	if err := s.CreateMailbox("victim@mail.example"); err != nil {
		t.Fatal(err)
	}
	cs := &CodeSender{Server: s}
	if err := cs.SendCode("victim@mail.example", "PayPal", "339201"); err != nil {
		t.Fatal(err)
	}
	box, err := s.Inbox("victim@mail.example")
	if err != nil || len(box) != 1 || !strings.Contains(box[0].Subject, "PayPal") {
		t.Fatalf("code mail not delivered: %+v, %v", box, err)
	}
	m := box[0]
	code, ok := ExtractCode(m.Body)
	if !ok || code != "339201" {
		t.Errorf("extracted %q,%v from %q", code, ok, m.Body)
	}
	if m.From != "no-reply@paypal.example" {
		t.Errorf("From = %q", m.From)
	}
	var nilSender CodeSender
	if err := nilSender.SendCode("x@y.example", "Svc", "1"); err == nil {
		t.Error("nil server accepted")
	}
}

func TestConcurrentDelivery(t *testing.T) {
	s := NewServer()
	if err := s.CreateMailbox("a@x.example"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := s.Deliver(Message{From: "f@y.example", To: "a@x.example", Body: "m"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	box, _ := s.Inbox("a@x.example")
	if len(box) != 400 {
		t.Fatalf("inbox = %d want 400", len(box))
	}
	seen := make(map[int]bool, len(box))
	for _, m := range box {
		if seen[m.Seq] {
			t.Fatalf("duplicate seq %d", m.Seq)
		}
		seen[m.Seq] = true
	}
}
