// Package smsotp implements the one-time-code service behind every
// simulated online service's "SMS Code" (SC) and "email code" (EMC)
// factors (the paper's Fig 9 flow): code issuance with TTL, attempt
// limits and per-destination rate limiting, plus pluggable delivery
// transports — GSM SMS through the telecom substrate (interceptable),
// email, or the hardened built-in push channel of §VII.A.2.
package smsotp

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/actfort/actfort/internal/telecom"
)

// Verification errors.
var (
	ErrNoCode          = errors.New("smsotp: no outstanding code for destination")
	ErrExpired         = errors.New("smsotp: code expired")
	ErrWrongCode       = errors.New("smsotp: wrong code")
	ErrTooManyAttempts = errors.New("smsotp: attempt limit exceeded")
	ErrRateLimited     = errors.New("smsotp: issuance rate limit exceeded")
)

// Sender delivers an issued code to a destination. Implementations:
// TelecomSender (GSM SMS), email.CodeSender, builtinauth.PushSender.
type Sender interface {
	SendCode(destination, serviceName, code string) error
}

// Option configures a Service.
type Option func(*Service)

// WithSeed makes code generation deterministic for experiments.
func WithSeed(seed int64) Option {
	return func(s *Service) { s.rng = rand.New(rand.NewSource(seed)) }
}

// WithClock injects a time source (tests drive expiry manually).
func WithClock(now func() time.Time) Option {
	return func(s *Service) { s.now = now }
}

// Issuance policy: the code lifetime, the verification attempts per
// code, the code length, and the sliding-window issue limit per
// destination.
const (
	codeTTL     = 5 * time.Minute
	maxAttempts = 3
	codeLen     = 6
	rateMax     = 5
	rateWindow  = time.Minute
)

// Service issues and verifies one-time codes. One Service instance
// typically backs one online service's SC/EMC factors.
type Service struct {
	mu       sync.Mutex
	rng      *rand.Rand
	now      func() time.Time
	pending  map[pendKey]*issued
	issueLog map[string][]time.Time // destination -> recent issue times
}

type pendKey struct {
	service     string
	destination string
}

type issued struct {
	code     string
	expires  time.Time
	attempts int
}

// New builds a Service.
func New(opts ...Option) *Service {
	s := &Service{
		rng:      rand.New(rand.NewSource(1)),
		now:      time.Now,
		pending:  make(map[pendKey]*issued),
		issueLog: make(map[string][]time.Time),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Issue generates a fresh code for (service, destination), records it,
// and hands it to send for delivery. Re-issuing replaces any previous
// outstanding code. The code itself is returned only through the
// transport — callers verify, they do not see codes.
func (s *Service) Issue(service, destination string, send Sender) error {
	if send == nil {
		return errors.New("smsotp: nil sender")
	}
	s.mu.Lock()
	now := s.now()
	// Sliding-window rate limit per destination.
	recent := s.issueLog[destination][:0]
	for _, ts := range s.issueLog[destination] {
		if now.Sub(ts) < rateWindow {
			recent = append(recent, ts)
		}
	}
	if len(recent) >= rateMax {
		s.issueLog[destination] = recent
		s.mu.Unlock()
		return fmt.Errorf("%w: %d issues in %v", ErrRateLimited, len(recent), rateWindow)
	}
	s.issueLog[destination] = append(recent, now)

	code := s.genCodeLocked()
	s.pending[pendKey{service, destination}] = &issued{
		code:    code,
		expires: now.Add(codeTTL),
	}
	s.mu.Unlock()

	if err := send.SendCode(destination, service, code); err != nil {
		// Delivery failed: invalidate so a lucky guess cannot win.
		s.mu.Lock()
		delete(s.pending, pendKey{service, destination})
		s.mu.Unlock()
		return fmt.Errorf("smsotp: delivery: %w", err)
	}
	return nil
}

// genCodeLocked requires s.mu held.
func (s *Service) genCodeLocked() string {
	digits := make([]byte, codeLen)
	for i := range digits {
		digits[i] = byte('0' + s.rng.Intn(10))
	}
	return string(digits)
}

// Verify checks a submitted code. Success consumes the code; failures
// count against the attempt limit; expiry and exhaustion invalidate.
func (s *Service) Verify(service, destination, code string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := pendKey{service, destination}
	iss, ok := s.pending[k]
	if !ok {
		return ErrNoCode
	}
	if s.now().After(iss.expires) {
		delete(s.pending, k)
		return ErrExpired
	}
	if iss.attempts >= maxAttempts {
		delete(s.pending, k)
		return ErrTooManyAttempts
	}
	iss.attempts++
	if iss.code != code {
		if iss.attempts >= maxAttempts {
			delete(s.pending, k)
			return ErrTooManyAttempts
		}
		return ErrWrongCode
	}
	delete(s.pending, k)
	return nil
}

// TelecomSender delivers codes as GSM/LTE SMS through the simulated
// network — the interceptable channel the whole paper is about.
type TelecomSender struct {
	Net *telecom.Network
	// Originator is the SMS sender ID, e.g. "Google".
	Originator string
	// DisplayName replaces the service name in the message text; use
	// it when the smsotp scope string is not GSM-alphabet-safe.
	DisplayName string
	// Template must contain two %s verbs: service name and code.
	// Empty means the default template.
	Template string
}

var _ Sender = (*TelecomSender)(nil)

// DefaultTemplate mirrors real OTP SMS phrasing (cf. Fig 5).
const DefaultTemplate = "%s verification code: %s. Do not share it with anyone."

// SendCode implements Sender.
func (t *TelecomSender) SendCode(destination, serviceName, code string) error {
	if t.Net == nil {
		return errors.New("smsotp: TelecomSender without network")
	}
	tmpl := t.Template
	if tmpl == "" {
		tmpl = DefaultTemplate
	}
	name := t.DisplayName
	if name == "" {
		name = serviceName
	}
	origin := t.Originator
	if origin == "" {
		origin = name
	}
	_, err := t.Net.SendSMS(origin, destination, fmt.Sprintf(tmpl, name, code))
	return err
}
