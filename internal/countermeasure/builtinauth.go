// Package countermeasure implements §VII.A: the sensitive-information
// protection principles (unified masking, hardened email providers)
// and the Fig 8 built-in authentication service — an OS-level push
// channel that replaces GSM SMS delivery with an authenticated,
// encrypted flow the radio attacker never sees — plus the before/after
// evaluation that re-runs the ActFort measurement on the fortified
// ecosystem.
//
// Fortifications are exposed as a named Policy registry over catalog
// rewrites, with one invariant campaign sweeps depend on: Apply never
// mutates its input catalog (every rewriter works on a deep clone), so
// N scenarios sharing one population can each compile their own
// fortified attack plan while before/after comparisons stay valid.
package countermeasure

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// The Fig 8 message flow:
//
//	① Register        — device provisions a key with the OS auth server
//	② Login Request   — a service asks the server to authenticate a user
//	③ Authorize       — the server pushes an encrypted prompt to the device
//	④ Authenticate    — the user approves on the device
//	⑤ Verification    — the server hands the service a one-time signal
//
// Nothing here touches the telecom package: the channel is modeled as
// the mutually authenticated, encrypted session ("Encrypted Code via
// Https") that the paper proposes.

// Errors of the push protocol.
var (
	ErrUnknownDevice   = errors.New("countermeasure: phone has no registered device")
	ErrUnknownRequest  = errors.New("countermeasure: unknown or expired auth request")
	ErrNotAuthorized   = errors.New("countermeasure: request not authorized by the device")
	ErrTampered        = errors.New("countermeasure: push payload failed authentication")
	ErrAlreadyRegister = errors.New("countermeasure: phone already registered")
)

// PushPayload is the decrypted prompt shown on the user's device.
type PushPayload struct {
	Service   string `json:"service"`
	RequestID string `json:"request_id"`
}

// encryptedPush is what travels the wire: AES-256-CTR ciphertext with
// an encrypt-then-MAC HMAC-SHA256 tag.
type encryptedPush struct {
	nonce [16]byte
	ct    []byte
	tag   [32]byte
}

// AuthServer is the OS provider's authentication server.
type AuthServer struct {
	mu      sync.Mutex
	devices map[string]*Device // by phone
	pending map[string]*pendingAuth
	signals map[string]signalRecord
}

type pendingAuth struct {
	service    string
	phone      string
	authorized bool
}

type signalRecord struct {
	service string
	phone   string
	used    bool
}

// NewAuthServer builds an empty server.
func NewAuthServer() *AuthServer {
	return &AuthServer{
		devices: make(map[string]*Device),
		pending: make(map[string]*pendingAuth),
		signals: make(map[string]signalRecord),
	}
}

// Device is the user's handset running the built-in authenticator.
type Device struct {
	phone string
	key   [32]byte

	mu    sync.Mutex
	inbox []encryptedPush
}

// Register provisions a device for a phone number (step ①). The key
// exchange happens over the secure provisioning channel, not SMS.
func (s *AuthServer) Register(phone string) (*Device, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.devices[phone]; dup {
		return nil, fmt.Errorf("%w: %s", ErrAlreadyRegister, phone)
	}
	d := &Device{phone: phone}
	if _, err := rand.Read(d.key[:]); err != nil {
		return nil, err
	}
	s.devices[phone] = d
	return d, nil
}

// LoginRequest starts an authentication for (service, phone): the
// server pushes an encrypted prompt to the registered device (steps
// ②③) and returns the request ID the service will later query.
func (s *AuthServer) LoginRequest(service, phone string) (string, error) {
	s.mu.Lock()
	dev, ok := s.devices[phone]
	if !ok {
		s.mu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrUnknownDevice, phone)
	}
	id, err := randomToken()
	if err != nil {
		s.mu.Unlock()
		return "", err
	}
	s.pending[id] = &pendingAuth{service: service, phone: phone}
	s.mu.Unlock()

	payload, err := json.Marshal(PushPayload{Service: service, RequestID: id})
	if err != nil {
		return "", err
	}
	push, err := seal(dev.key, payload)
	if err != nil {
		return "", err
	}
	dev.mu.Lock()
	dev.inbox = append(dev.inbox, push)
	dev.mu.Unlock()
	return id, nil
}

// Prompts decrypts and authenticates the device's pending pushes
// (step ④'s display). Tampered payloads are reported, not shown.
func (d *Device) Prompts() ([]PushPayload, error) {
	d.mu.Lock()
	pushes := append([]encryptedPush(nil), d.inbox...)
	d.mu.Unlock()
	out := make([]PushPayload, 0, len(pushes))
	for _, p := range pushes {
		plain, err := open(d.key, p)
		if err != nil {
			return nil, err
		}
		var pp PushPayload
		if err := json.Unmarshal(plain, &pp); err != nil {
			return nil, err
		}
		out = append(out, pp)
	}
	return out, nil
}

// Authorize approves a request on the device (step ④).
func (d *Device) Authorize(s *AuthServer, requestID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pending[requestID]
	if !ok || p.phone != d.phone {
		return ErrUnknownRequest
	}
	p.authorized = true
	return nil
}

// Signal exchanges an authorized request for a one-time verification
// signal the service accepts (step ⑤).
func (s *AuthServer) Signal(requestID string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pending[requestID]
	if !ok {
		return "", ErrUnknownRequest
	}
	if !p.authorized {
		return "", ErrNotAuthorized
	}
	delete(s.pending, requestID)
	token, err := randomToken()
	if err != nil {
		return "", err
	}
	s.signals[token] = signalRecord{service: p.service, phone: p.phone}
	return token, nil
}

// VerifySignal consumes a verification signal; it is valid exactly
// once and only for the (service, phone) pair it was minted for. This
// is the services.PushVerifier the hardened platform plugs in.
func (s *AuthServer) VerifySignal(service, phone, token string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.signals[token]
	if !ok || rec.used || rec.service != service || rec.phone != phone {
		return false
	}
	rec.used = true
	s.signals[token] = rec
	return true
}

// --- authenticated encryption (encrypt-then-MAC) ---

func seal(key [32]byte, plaintext []byte) (encryptedPush, error) {
	var p encryptedPush
	if _, err := rand.Read(p.nonce[:]); err != nil {
		return p, err
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return p, err
	}
	p.ct = make([]byte, len(plaintext))
	cipher.NewCTR(block, p.nonce[:]).XORKeyStream(p.ct, plaintext)
	mac := hmac.New(sha256.New, key[:])
	mac.Write(p.nonce[:])
	mac.Write(p.ct)
	copy(p.tag[:], mac.Sum(nil))
	return p, nil
}

func open(key [32]byte, p encryptedPush) ([]byte, error) {
	mac := hmac.New(sha256.New, key[:])
	mac.Write(p.nonce[:])
	mac.Write(p.ct)
	if !hmac.Equal(mac.Sum(nil), p.tag[:]) {
		return nil, ErrTampered
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(p.ct))
	cipher.NewCTR(block, p.nonce[:]).XORKeyStream(out, p.ct)
	return out, nil
}

func randomToken() (string, error) {
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(raw[:]), nil
}
