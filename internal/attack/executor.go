package attack

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strings"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/email"
	"github.com/actfort/actfort/internal/services"
	"github.com/actfort/actfort/internal/strategy"
)

// StepResult records one executed compromise.
type StepResult struct {
	Account ecosys.AccountID
	PathID  string
	// Harvested lists the profile fields ingested after takeover.
	Harvested []string
	// Notes carries per-step commentary ("combined 2 masked views").
	Notes []string
}

// Result is a completed chain reaction attack.
type Result struct {
	Target ecosys.AccountID
	Steps  []StepResult
	// FinalToken is the session controlling the target.
	FinalToken string
}

// Transcript renders the attack, one line per step.
func (r *Result) Transcript() []string {
	out := make([]string, 0, len(r.Steps))
	for i, s := range r.Steps {
		line := fmt.Sprintf("step %d: compromised %s via %s", i+1, s.Account, s.PathID)
		if len(s.Harvested) > 0 {
			line += " (harvested " + strings.Join(s.Harvested, ", ") + ")"
		}
		out = append(out, line)
	}
	return out
}

// Executor drives plans against live services.
type Executor struct {
	// Platform hosts the target services; every plan account must be
	// launched.
	Platform *services.Platform
	// Intercept supplies SMS codes.
	Intercept *SnifferInterceptor
	// Know is the victim dossier; it grows as steps complete.
	Know *Knowledge
	// Client defaults to http.DefaultClient.
	Client *http.Client
}

// Common errors.
var (
	ErrNotLaunched   = errors.New("attack: plan account not launched on the platform")
	ErrMissingFactor = errors.New("attack: cannot source a required factor")
)

func (e *Executor) client() *http.Client {
	if e.Client != nil {
		return e.Client
	}
	return http.DefaultClient
}

// Execute runs every step of the plan in order. On failure it returns
// the partial result alongside the error for diagnosis.
func (e *Executor) Execute(ctx context.Context, plan *strategy.Plan) (*Result, error) {
	res := &Result{Target: plan.Target}
	for _, step := range plan.Steps {
		sr, token, err := e.executeStep(ctx, step)
		if err != nil {
			return res, fmt.Errorf("attack: step %s: %w", step.Account, err)
		}
		res.Steps = append(res.Steps, sr)
		res.FinalToken = token
	}
	return res, nil
}

// executeStep compromises one account: source every factor of the
// step's path, authenticate, then harvest the profile.
func (e *Executor) executeStep(ctx context.Context, step strategy.PlanStep) (StepResult, string, error) {
	sr := StepResult{Account: step.Account, PathID: step.PathID}
	inst, ok := e.Platform.Instance(step.Account)
	if !ok {
		return sr, "", fmt.Errorf("%w: %s", ErrNotLaunched, step.Account)
	}
	presence, ok := e.Platform.Catalog().PresenceOf(step.Account)
	if !ok {
		return sr, "", fmt.Errorf("attack: presence lookup failed for %s", step.Account)
	}
	path, ok := pathByID(presence, step.PathID)
	if !ok {
		return sr, "", fmt.Errorf("attack: path %q not on %s", step.PathID, step.Account)
	}

	// 1. Trigger OTP delivery when the path carries code factors.
	needsCodes := false
	for _, f := range path.Factors {
		if f == ecosys.FactorSMSCode || f == ecosys.FactorEmailCode || f == ecosys.FactorEmailLink {
			needsCodes = true
		}
	}
	if needsCodes {
		var rc services.RequestCodeResp
		status, err := e.postJSON(ctx, inst.URL()+"/request-code", services.RequestCodeReq{
			Phone: e.Know.Phone(), Path: path.ID,
		}, &rc)
		if err != nil {
			return sr, "", err
		}
		if status != http.StatusOK {
			return sr, "", fmt.Errorf("attack: request-code returned %d", status)
		}
	}

	// 2. Source each factor.
	factors := make(map[string]string, len(path.Factors))
	for _, f := range path.Factors {
		val, note, err := e.sourceFactor(ctx, f, step.Account.Service, presence)
		if err != nil {
			return sr, "", err
		}
		if note != "" {
			sr.Notes = append(sr.Notes, note)
		}
		factors[f.String()] = val
	}

	// 3. Authenticate.
	var auth services.AuthResp
	status, err := e.postJSON(ctx, inst.URL()+"/authenticate", services.AuthReq{
		Phone: e.Know.Phone(), Path: path.ID, Factors: factors,
	}, &auth)
	if err != nil {
		return sr, "", err
	}
	if status != http.StatusOK || auth.Token == "" {
		return sr, "", fmt.Errorf("attack: authenticate on %s via %s returned %d", step.Account, path.ID, status)
	}
	e.Know.SetSession(step.Account.Service, auth.Token)

	// 4. Harvest the profile into the dossier.
	var prof services.ProfileResp
	status, err = e.getJSON(ctx, inst.URL()+"/profile", auth.Token, &prof)
	if err != nil {
		return sr, "", err
	}
	if status == http.StatusOK {
		// Sorted, so the dossier and the step transcript do not depend
		// on map iteration order.
		for _, name := range slices.Sorted(maps.Keys(prof.Fields)) {
			if field, ok := parseField(name); ok {
				e.Know.Ingest(field, prof.Fields[name])
				sr.Harvested = append(sr.Harvested, name)
			}
		}
	}
	return sr, auth.Token, nil
}

// sourceFactor produces a concrete value for one factor.
func (e *Executor) sourceFactor(ctx context.Context, f ecosys.FactorKind, service string, presence *ecosys.Presence) (value, note string, err error) {
	switch f {
	case ecosys.FactorSMSCode:
		code, err := e.Intercept.InterceptCode(ctx, services.OriginatorFor(service))
		if err != nil {
			return "", "", err
		}
		return code, "intercepted SMS code " + code, nil
	case ecosys.FactorEmailCode, ecosys.FactorEmailLink:
		code, err := e.readEmailCode(ctx, service, presence)
		if err != nil {
			return "", "", err
		}
		return code, "read email code from compromised mailbox", nil
	case ecosys.FactorLinkedAccount:
		for _, b := range presence.BoundTo {
			if token, ok := e.Know.Session(b); ok {
				return token, "reused " + b + " session for SSO", nil
			}
		}
		return "", "", fmt.Errorf("%w: no session on any bound account %v", ErrMissingFactor, presence.BoundTo)
	default:
		if v, ok := e.Know.FactorValue(f); ok {
			if len(e.Know.Views(fieldOf(f))) > 1 {
				return v, "value for " + f.String() + " recovered by combining masked views", nil
			}
			return v, "", nil
		}
		return "", "", fmt.Errorf("%w: %s", ErrMissingFactor, f)
	}
}

// readEmailCode reads the newest OTP mail for this presence's service
// out of the victim's mailbox, through a previously compromised email
// account.
func (e *Executor) readEmailCode(ctx context.Context, service string, presence *ecosys.Presence) (string, error) {
	provider := presence.EmailProvider
	if provider == "" {
		return "", fmt.Errorf("%w: target has no email provider on record", ErrMissingFactor)
	}
	token, ok := e.Know.Session(provider)
	if !ok {
		return "", fmt.Errorf("%w: mailbox host %s not compromised", ErrMissingFactor, provider)
	}
	inst, ok := e.Platform.Instance(ecosys.AccountID{Service: provider, Platform: ecosys.PlatformWeb})
	if !ok {
		inst, ok = e.Platform.Instance(ecosys.AccountID{Service: provider, Platform: ecosys.PlatformMobile})
	}
	if !ok {
		return "", fmt.Errorf("%w: mailbox host %s not launched", ErrNotLaunched, provider)
	}
	var box services.MailboxResp
	status, err := e.getJSON(ctx, inst.URL()+"/mailbox", token, &box)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("attack: mailbox read returned %d", status)
	}
	want := services.OriginatorFor(service)
	for i := len(box.Messages) - 1; i >= 0; i-- {
		m := box.Messages[i]
		if !strings.Contains(m.Subject, want) {
			continue
		}
		if code, ok := email.ExtractCode(m.Body); ok {
			return code, nil
		}
	}
	return "", fmt.Errorf("%w: no %s code mail in mailbox", ErrMissingFactor, want)
}

// --- plumbing ---

func (e *Executor) postJSON(ctx context.Context, url string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, nil
}

func (e *Executor) getJSON(ctx context.Context, url, token string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := e.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, nil
}

// Pay demonstrates control of a fintech target by making a payment.
func (e *Executor) Pay(ctx context.Context, target ecosys.AccountID, token string) (string, error) {
	inst, ok := e.Platform.Instance(target)
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotLaunched, target)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, inst.URL()+"/pay", bytes.NewReader([]byte("{}")))
	if err != nil {
		return "", err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := e.client().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("attack: pay returned %d", resp.StatusCode)
	}
	var pay services.PayResp
	if err := json.NewDecoder(resp.Body).Decode(&pay); err != nil {
		return "", err
	}
	return pay.Receipt, nil
}

// --- helpers bridging ecosys metadata ---

func pathByID(pr *ecosys.Presence, id string) (ecosys.AuthPath, bool) {
	for _, p := range pr.Paths {
		if p.ID == id {
			return p, true
		}
	}
	return ecosys.AuthPath{}, false
}

// fieldOf is the inverse factor->field map for note generation.
func fieldOf(f ecosys.FactorKind) ecosys.InfoField {
	if field, ok := factorField[f]; ok {
		return field
	}
	return 0
}

func parseField(name string) (ecosys.InfoField, bool) {
	for _, f := range ecosys.AllInfoFields() {
		if f.String() == name {
			return f, true
		}
	}
	return 0, false
}
