package services

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"

	"github.com/actfort/actfort/internal/collect"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/email"
	"github.com/actfort/actfort/internal/smsotp"
)

// Instance is one live service presence: an HTTP server with the
// presence's authentication paths enforced.
type Instance struct {
	platform *Platform
	id       ecosys.AccountID
	domain   ecosys.Domain
	presence *ecosys.Presence
	server   *httptest.Server

	mu    sync.Mutex
	users map[string]*User // keyed by phone
}

// URL returns the instance's base URL.
func (in *Instance) URL() string { return in.server.URL }

func (in *Instance) provision(u User) {
	in.mu.Lock()
	defer in.mu.Unlock()
	uc := u
	in.users[u.Persona.Phone] = &uc
}

func (in *Instance) user(phone string) (*User, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	u, ok := in.users[phone]
	return u, ok
}

func (in *Instance) path(id string) (ecosys.AuthPath, bool) {
	for _, p := range in.presence.Paths {
		if p.ID == id {
			return p, true
		}
	}
	return ecosys.AuthPath{}, false
}

// --- wire types ---

// RequestCodeReq asks the service to dispatch the OTPs a path needs.
type RequestCodeReq struct {
	Phone string `json:"phone"`
	Path  string `json:"path"`
}

// RequestCodeResp lists which factor codes were sent.
type RequestCodeResp struct {
	Sent []string `json:"sent"`
}

// AuthReq attempts a path with concrete factor values, keyed by the
// long factor names ("sms-code", "citizen-id", ...).
type AuthReq struct {
	Phone   string            `json:"phone"`
	Path    string            `json:"path"`
	Factors map[string]string `json:"factors"`
}

// AuthResp carries the session token on success.
type AuthResp struct {
	Token string `json:"token"`
}

// ProfileResp is the post-login profile page: field name -> displayed
// (possibly masked) value.
type ProfileResp struct {
	Service string            `json:"service"`
	Fields  map[string]string `json:"fields"`
}

// MailboxResp lists the mailbox of the session holder (email-domain
// instances only).
type MailboxResp struct {
	Messages []email.Message `json:"messages"`
}

// PayResp acknowledges a payment (fintech instances only).
type PayResp struct {
	Receipt string `json:"receipt"`
}

// MetaResp describes the instance's paths, for clients that discover
// flows dynamically (the attack executor does).
type MetaResp struct {
	Service  string   `json:"service"`
	Platform string   `json:"platform"`
	Paths    []string `json:"paths"`
}

type errResp struct {
	Error string `json:"error"`
}

// --- routing ---

func (in *Instance) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /request-code", in.handleRequestCode)
	mux.HandleFunc("POST /authenticate", in.handleAuthenticate)
	mux.HandleFunc("GET /profile", in.handleProfile)
	mux.HandleFunc("GET /mailbox", in.handleMailbox)
	mux.HandleFunc("POST /pay", in.handlePay)
	mux.HandleFunc("GET /meta", in.handleMeta)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errResp{Error: fmt.Sprintf(format, args...)})
}

// handleRequestCode triggers OTP delivery for every code factor of the
// requested path: SMS codes ride the (sniffable) telecom network,
// email codes go to the user's registered mailbox.
func (in *Instance) handleRequestCode(w http.ResponseWriter, r *http.Request) {
	var req RequestCodeReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	u, ok := in.user(req.Phone)
	if !ok {
		writeErr(w, http.StatusNotFound, "no account for phone")
		return
	}
	path, ok := in.path(req.Path)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown path %q", req.Path)
		return
	}
	var sent []string
	for _, f := range path.Factors {
		switch f {
		case ecosys.FactorSMSCode:
			sender := &smsotp.TelecomSender{
				Net:         in.platform.net,
				Originator:  OriginatorFor(in.id.Service),
				DisplayName: OriginatorFor(in.id.Service),
			}
			if err := in.platform.otp.Issue(in.otpScopeSMS(), u.Persona.Phone, sender); err != nil {
				writeErr(w, http.StatusTooManyRequests, "sms code: %v", err)
				return
			}
			sent = append(sent, f.String())
		case ecosys.FactorEmailCode, ecosys.FactorEmailLink:
			sender := &email.CodeSender{Server: in.platform.mail, DisplayName: OriginatorFor(in.id.Service)}
			if err := in.platform.otp.Issue(in.otpScopeEmail(), u.Persona.Email, sender); err != nil {
				writeErr(w, http.StatusTooManyRequests, "email code: %v", err)
				return
			}
			sent = append(sent, f.String())
		}
	}
	writeJSON(w, http.StatusOK, RequestCodeResp{Sent: sent})
}

// otpScopeSMS/Email namespace codes per instance and channel.
func (in *Instance) otpScopeSMS() string   { return in.id.String() + "|sms" }
func (in *Instance) otpScopeEmail() string { return in.id.String() + "|email" }

// OriginatorFor renders the SMS sender ID a service uses ("Google",
// "PayPal"): the capitalized first word of the service name. It is
// public knowledge an attacker uses to filter sniffed traffic.
func OriginatorFor(service string) string {
	if service == "" {
		return "Service"
	}
	base := service
	if i := strings.IndexByte(base, '-'); i > 0 {
		base = base[:i]
	}
	if len(base) > 11 { // GSM alphanumeric sender IDs cap at 11 chars
		base = base[:11]
	}
	return strings.ToUpper(base[:1]) + base[1:]
}

// handleAuthenticate verifies every factor of the chosen path and
// mints a session. Sign-in and password-reset paths both yield account
// control (after a reset the attacker owns the new password);
// payment-reset paths yield a payment-scoped session.
func (in *Instance) handleAuthenticate(w http.ResponseWriter, r *http.Request) {
	var req AuthReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	u, ok := in.user(req.Phone)
	if !ok {
		writeErr(w, http.StatusNotFound, "no account for phone")
		return
	}
	path, ok := in.path(req.Path)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown path %q", req.Path)
		return
	}
	for _, f := range path.Factors {
		val, given := req.Factors[f.String()]
		if !given {
			writeErr(w, http.StatusForbidden, "missing factor %s", f)
			return
		}
		if err := in.verifyFactor(u, f, val); err != nil {
			writeErr(w, http.StatusForbidden, "factor %s: %v", f, err)
			return
		}
	}
	token := in.platform.newSession(in.id, u.Persona.Phone)
	writeJSON(w, http.StatusOK, AuthResp{Token: token})
}

// verifyFactor checks one submitted factor value.
func (in *Instance) verifyFactor(u *User, f ecosys.FactorKind, val string) error {
	switch f {
	case ecosys.FactorPassword:
		if val != u.Password {
			return errors.New("wrong password")
		}
	case ecosys.FactorSMSCode:
		return in.platform.otp.Verify(in.otpScopeSMS(), u.Persona.Phone, val)
	case ecosys.FactorEmailCode, ecosys.FactorEmailLink:
		return in.platform.otp.Verify(in.otpScopeEmail(), u.Persona.Email, val)
	case ecosys.FactorCellphone:
		if val != u.Persona.Phone {
			return errors.New("wrong phone number")
		}
	case ecosys.FactorEmailAddress:
		if val != u.Persona.Email {
			return errors.New("wrong email address")
		}
	case ecosys.FactorRealName:
		if val != u.Persona.RealName {
			return errors.New("wrong name")
		}
	case ecosys.FactorCitizenID:
		if val != u.Persona.CitizenID {
			return errors.New("wrong citizen ID")
		}
	case ecosys.FactorBankcard:
		if val != u.Persona.Bankcard {
			return errors.New("wrong bankcard")
		}
	case ecosys.FactorAddress:
		if val != u.Persona.Address {
			return errors.New("wrong address")
		}
	case ecosys.FactorUserID:
		if val != u.Persona.UserID {
			return errors.New("wrong user ID")
		}
	case ecosys.FactorStudentID:
		if val != u.Persona.StudentID {
			return errors.New("wrong student ID")
		}
	case ecosys.FactorDeviceType:
		if val != u.Persona.DeviceType {
			return errors.New("wrong device type")
		}
	case ecosys.FactorAcquaintance:
		for _, a := range u.Persona.Acquaintances {
			if a == val {
				return nil
			}
		}
		return errors.New("not an acquaintance")
	case ecosys.FactorSecurityQuestion:
		if val != u.SecurityAnswer {
			return errors.New("wrong answer")
		}
	case ecosys.FactorBiometric, ecosys.FactorU2F:
		// Possession-bound: only the genuine device secret passes.
		if val != u.DeviceSecret {
			return errors.New("device attestation failed")
		}
	case ecosys.FactorLinkedAccount:
		sess, ok := in.platform.session(val)
		if !ok {
			return errors.New("invalid linked session")
		}
		for _, b := range in.presence.BoundTo {
			if sess.Account.Service == b && sess.Phone == u.Persona.Phone {
				return nil
			}
		}
		return errors.New("session not from a bound account")
	case ecosys.FactorCustomerService:
		// Human-assisted resets need social engineering beyond this
		// simulation (§V.B Case III notes it merely "increases the
		// attacker's chance").
		return errors.New("manual review required")
	case ecosys.FactorBuiltinPush:
		if in.platform.push != nil && in.platform.push(in.id.Service, u.Persona.Phone, val) {
			return nil
		}
		return errors.New("push confirmation rejected")
	default:
		return fmt.Errorf("unsupported factor %v", f)
	}
	return nil
}

// handleProfile renders the post-login profile page with the
// presence's masks applied — the attacker's harvest.
func (in *Instance) handleProfile(w http.ResponseWriter, r *http.Request) {
	u, ok := in.authorize(r)
	if !ok {
		writeErr(w, http.StatusUnauthorized, "no session")
		return
	}
	values := collect.Harvest(in.presence, u.Persona)
	fields := make(map[string]string, len(values))
	for f, v := range values {
		fields[f.String()] = v
	}
	writeJSON(w, http.StatusOK, ProfileResp{Service: in.id.Service, Fields: fields})
}

// handleMailbox serves the session holder's inbox on email-domain
// instances: a compromised mailbox leaks every other service's email
// codes (the "gateway" insight).
func (in *Instance) handleMailbox(w http.ResponseWriter, r *http.Request) {
	if in.domain != ecosys.DomainEmail {
		writeErr(w, http.StatusNotFound, "not an email service")
		return
	}
	u, ok := in.authorize(r)
	if !ok {
		writeErr(w, http.StatusUnauthorized, "no session")
		return
	}
	msgs, err := in.platform.mail.Inbox(u.Persona.Email)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "mailbox: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, MailboxResp{Messages: msgs})
}

// handlePay demonstrates a transaction on fintech instances (Cases I
// and III end with a payment).
func (in *Instance) handlePay(w http.ResponseWriter, r *http.Request) {
	if in.domain != ecosys.DomainFintech {
		writeErr(w, http.StatusNotFound, "not a fintech service")
		return
	}
	u, ok := in.authorize(r)
	if !ok {
		writeErr(w, http.StatusUnauthorized, "no session")
		return
	}
	writeJSON(w, http.StatusOK, PayResp{
		Receipt: fmt.Sprintf("paid-by-%s-via-%s", u.Persona.UserID, in.id.String()),
	})
}

func (in *Instance) handleMeta(w http.ResponseWriter, _ *http.Request) {
	meta := MetaResp{Service: in.id.Service, Platform: in.id.Platform.String()}
	for _, p := range in.presence.Paths {
		meta.Paths = append(meta.Paths, p.ID)
	}
	writeJSON(w, http.StatusOK, meta)
}

// authorize resolves the bearer token to this instance's user.
func (in *Instance) authorize(r *http.Request) (*User, bool) {
	token := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	if token == "" {
		return nil, false
	}
	sess, ok := in.platform.session(token)
	if !ok || sess.Account != in.id {
		return nil, false
	}
	return in.user(sess.Phone)
}
