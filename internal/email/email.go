// Package email is the mail substrate: mailboxes, message delivery,
// and extraction of verification codes and reset links from message
// bodies. Email accounts are themselves services in the ecosystem —
// the paper's key insight is that "Emails are the gateway to most of
// the vulnerabilities exposed": most providers reset with SMS codes
// alone, and a compromised mailbox then leaks email codes (EMC) and
// reset links for everything registered to it.
package email

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"time"

	"github.com/actfort/actfort/internal/smsotp"
)

// Message is one delivered email.
type Message struct {
	From    string
	To      string
	Subject string
	Body    string
	// Seq orders messages within a mailbox (monotonic per server).
	Seq int
}

// Common errors.
var (
	ErrNoMailbox = errors.New("email: no such mailbox")
	ErrDuplicate = errors.New("email: mailbox already exists")
)

// Server is an in-memory mail provider. Safe for concurrent use.
type Server struct {
	mu        sync.Mutex
	mailboxes map[string][]Message
	nextSeq   int
}

// NewServer builds an empty server.
func NewServer() *Server {
	return &Server{mailboxes: make(map[string][]Message)}
}

// CreateMailbox provisions an address.
func (s *Server) CreateMailbox(addr string) error {
	if addr == "" || !strings.Contains(addr, "@") {
		return fmt.Errorf("email: invalid address %q", addr)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.mailboxes[addr]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, addr)
	}
	s.mailboxes[addr] = nil
	return nil
}

// Deliver appends a message to the recipient's mailbox.
func (s *Server) Deliver(m Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	box, ok := s.mailboxes[m.To]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoMailbox, m.To)
	}
	m.Seq = s.nextSeq
	s.nextSeq++
	s.mailboxes[m.To] = append(box, m)
	return nil
}

// Inbox returns a copy of the mailbox, oldest first.
func (s *Server) Inbox(addr string) ([]Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	box, ok := s.mailboxes[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoMailbox, addr)
	}
	return append([]Message(nil), box...), nil
}

// codeRe matches standalone 4–8 digit runs — OTP codes as they appear
// in real verification mails.
var codeRe = regexp.MustCompile(`\b([0-9]{4,8})\b`)

// ExtractCode pulls the first OTP-looking digit run from a body.
func ExtractCode(body string) (string, bool) {
	m := codeRe.FindStringSubmatch(body)
	if m == nil {
		return "", false
	}
	return m[1], true
}

// CodeSender adapts the server as an smsotp delivery transport, so
// services can offer "email code" authentication paths.
type CodeSender struct {
	Server *Server
	// From is the sender address, e.g. "no-reply@paypal.example".
	From string
	// DisplayName replaces the service name in subject and body; use
	// it when the smsotp scope string is not presentation-safe.
	DisplayName string
}

var _ smsotp.Sender = (*CodeSender)(nil)

// SendCode implements smsotp.Sender: destination is a mailbox address.
func (c *CodeSender) SendCode(destination, serviceName, code string) error {
	if c.Server == nil {
		return errors.New("email: CodeSender without server")
	}
	name := c.DisplayName
	if name == "" {
		name = serviceName
	}
	from := c.From
	if from == "" {
		from = "no-reply@" + strings.ToLower(name) + ".example"
	}
	return c.Server.Deliver(Message{
		From:    from,
		To:      destination,
		Subject: name + " verification code",
		Body: fmt.Sprintf("Your %s verification code is %s. It expires in %d minutes.",
			name, code, int((5 * time.Minute).Minutes())),
	})
}
