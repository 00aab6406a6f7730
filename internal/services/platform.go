// Package services turns catalog specifications into live HTTP
// services: real login, password-reset and profile endpoints with
// per-path credential-factor verification, OTP delivery through the
// simulated telecom network (interceptable) or the mail substrate, SSO
// binding, session management and masked profile rendering. The chain
// reaction attack of §V runs against these servers end to end.
package services

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/email"
	"github.com/actfort/actfort/internal/identity"
	"github.com/actfort/actfort/internal/smsotp"
	"github.com/actfort/actfort/internal/telecom"
)

// User is one provisioned account holder.
type User struct {
	Persona  identity.Persona
	Password string
	// DeviceSecret stands in for possession-bound factors (biometric
	// template / U2F key); it is never exposed on any profile page.
	DeviceSecret string
	// SecurityAnswer backs security-question paths.
	SecurityAnswer string
}

// Session is an authenticated session on one service presence.
type Session struct {
	Account ecosys.AccountID
	Phone   string
}

// PushVerifier validates a built-in-authentication push confirmation
// (set by the countermeasure package; nil rejects all pushes).
type PushVerifier func(service, phone, confirmation string) bool

// Config wires the platform to its substrates.
type Config struct {
	Catalog *ecosys.Catalog
	Net     *telecom.Network
	Mail    *email.Server
	// OTP is the code service; nil builds a default (seeded 1).
	OTP *smsotp.Service
	// Push validates FactorBuiltinPush factors.
	Push PushVerifier
}

// Platform hosts live service instances and the shared session store.
type Platform struct {
	cat  *ecosys.Catalog
	net  *telecom.Network
	mail *email.Server
	otp  *smsotp.Service
	push PushVerifier

	mu        sync.Mutex
	instances map[ecosys.AccountID]*Instance
	sessions  map[string]Session
}

// NewPlatform builds an empty platform (no instances launched yet).
func NewPlatform(cfg Config) (*Platform, error) {
	if cfg.Catalog == nil || cfg.Net == nil || cfg.Mail == nil {
		return nil, errors.New("services: catalog, network and mail server are required")
	}
	otp := cfg.OTP
	if otp == nil {
		otp = smsotp.New(smsotp.WithSeed(1))
	}
	return &Platform{
		cat:       cfg.Catalog,
		net:       cfg.Net,
		mail:      cfg.Mail,
		otp:       otp,
		push:      cfg.Push,
		instances: make(map[ecosys.AccountID]*Instance),
		sessions:  make(map[string]Session),
	}, nil
}

// Launch starts an HTTP server for the given presence. Launching the
// same account twice is an error.
func (p *Platform) Launch(id ecosys.AccountID) (*Instance, error) {
	pr, ok := p.cat.PresenceOf(id)
	if !ok {
		return nil, fmt.Errorf("services: unknown account %s", id)
	}
	svc, _ := p.cat.ByName(id.Service)
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.instances[id]; dup {
		return nil, fmt.Errorf("services: %s already launched", id)
	}
	inst := &Instance{
		platform: p,
		id:       id,
		domain:   svc.Domain,
		presence: pr,
		users:    make(map[string]*User),
	}
	inst.server = httptest.NewServer(inst.routes())
	p.instances[id] = inst
	return inst, nil
}

// LaunchAll launches every presence of the named services.
func (p *Platform) LaunchAll(names ...string) ([]*Instance, error) {
	var out []*Instance
	for _, name := range names {
		svc, ok := p.cat.ByName(name)
		if !ok {
			return nil, fmt.Errorf("services: unknown service %q", name)
		}
		for _, pr := range svc.Presences {
			inst, err := p.Launch(ecosys.AccountID{Service: name, Platform: pr.Platform})
			if err != nil {
				return nil, err
			}
			out = append(out, inst)
		}
	}
	return out, nil
}

// Instance returns a launched instance.
func (p *Platform) Instance(id ecosys.AccountID) (*Instance, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	inst, ok := p.instances[id]
	return inst, ok
}

// Close shuts every instance down.
func (p *Platform) Close() {
	p.mu.Lock()
	insts := make([]*Instance, 0, len(p.instances))
	for _, i := range p.instances {
		insts = append(insts, i)
	}
	p.instances = make(map[ecosys.AccountID]*Instance)
	p.mu.Unlock()
	for _, i := range insts {
		i.server.Close()
	}
}

// Provision registers the user on every launched instance (the victim
// owns an account everywhere, as the measurement assumes) and creates
// their mailbox if absent.
func (p *Platform) Provision(u User) error {
	if u.Persona.Phone == "" {
		return errors.New("services: user without phone")
	}
	if err := p.mail.CreateMailbox(u.Persona.Email); err != nil && !errors.Is(err, email.ErrDuplicate) {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, inst := range p.instances {
		inst.provision(u)
	}
	return nil
}

// newSession mints a session token for account id.
func (p *Platform) newSession(id ecosys.AccountID, phone string) string {
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		panic("services: crypto/rand failed: " + err.Error())
	}
	token := hex.EncodeToString(raw[:])
	p.mu.Lock()
	p.sessions[token] = Session{Account: id, Phone: phone}
	p.mu.Unlock()
	return token
}

// session resolves a token.
func (p *Platform) session(token string) (Session, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sessions[token]
	return s, ok
}

// Catalog returns the catalog the platform serves.
func (p *Platform) Catalog() *ecosys.Catalog { return p.cat }
