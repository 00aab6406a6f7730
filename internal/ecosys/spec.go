package ecosys

import (
	"fmt"

	"github.com/actfort/actfort/internal/intern"
)

// Platform distinguishes a service's web client from its mobile app.
// The paper measures both separately because their authentication
// policies are frequently asymmetric (§IV.B.2, insight 2).
type Platform int

const (
	// PlatformWeb is the browser client.
	PlatformWeb Platform = iota + 1
	// PlatformMobile is the mobile application.
	PlatformMobile
)

// String returns "web" or "mobile".
func (p Platform) String() string {
	switch p {
	case PlatformWeb:
		return "web"
	case PlatformMobile:
		return "mobile"
	}
	return "platform(?)"
}

// AllPlatforms lists both platforms in a stable order.
func AllPlatforms() []Platform { return []Platform{PlatformWeb, PlatformMobile} }

// Domain is the service category used to split the measurement
// (§IV.A: "Fintech, Email, Social Network, etc.").
type Domain int

const (
	// DomainFintech covers payment and banking services.
	DomainFintech Domain = iota + 1
	// DomainEmail covers mail providers.
	DomainEmail
	// DomainSocial covers social networks and messaging.
	DomainSocial
	// DomainECommerce covers shopping and retail.
	DomainECommerce
	// DomainTravel covers travel agencies, rail and lodging.
	DomainTravel
	// DomainCloud covers cloud storage.
	DomainCloud
	// DomainNews covers news and portals.
	DomainNews
	// DomainEducation covers education platforms.
	DomainEducation
	// DomainGaming covers game platforms.
	DomainGaming
	// DomainHealth covers health services.
	DomainHealth
	// DomainStreaming covers video/music streaming.
	DomainStreaming
	// DomainLifestyle covers food delivery, ride hailing and other
	// local life services.
	DomainLifestyle

	domainCount = int(DomainLifestyle)
)

var domainNames = map[Domain]string{
	DomainFintech:   "fintech",
	DomainEmail:     "email",
	DomainSocial:    "social",
	DomainECommerce: "e-commerce",
	DomainTravel:    "travel",
	DomainCloud:     "cloud",
	DomainNews:      "news",
	DomainEducation: "education",
	DomainGaming:    "gaming",
	DomainHealth:    "health",
	DomainStreaming: "streaming",
	DomainLifestyle: "lifestyle",
}

// String returns the lowercase domain name.
func (d Domain) String() string {
	if s, ok := domainNames[d]; ok {
		return s
	}
	return "domain(?)"
}

// AllDomains returns every domain in declaration order.
func AllDomains() []Domain {
	out := make([]Domain, 0, domainCount)
	for d := DomainFintech; int(d) <= domainCount; d++ {
		out = append(out, d)
	}
	return out
}

// SignupMethod is how an account can be created (§III.B).
type SignupMethod int

const (
	// SignupUsername registers with a chosen username + password.
	SignupUsername SignupMethod = iota + 1
	// SignupEmail registers with an email address.
	SignupEmail
	// SignupPhone registers with a cellphone number.
	SignupPhone
	// SignupLinked registers through a third-party account (SSO).
	SignupLinked
)

// String names the signup method.
func (m SignupMethod) String() string {
	switch m {
	case SignupUsername:
		return "username"
	case SignupEmail:
		return "email"
	case SignupPhone:
		return "phone"
	case SignupLinked:
		return "linked"
	}
	return "signup(?)"
}

// PathPurpose is what a successful authentication path grants.
type PathPurpose int

const (
	// PurposeSignIn is an ordinary login.
	PurposeSignIn PathPurpose = iota + 1
	// PurposeReset is a password reset, which yields login.
	PurposeReset
	// PurposePaymentReset resets the payment PIN (Fintech; the Alipay
	// case study resets both the login and the payment code).
	PurposePaymentReset
)

// String names the purpose.
func (p PathPurpose) String() string {
	switch p {
	case PurposeSignIn:
		return "sign-in"
	case PurposeReset:
		return "password-reset"
	case PurposePaymentReset:
		return "payment-reset"
	}
	return "purpose(?)"
}

// PathClass is the paper's three-way taxonomy of authentication paths
// (§IV.B.1): general paths use basic factors, info paths demand
// identity information, unique paths demand unphishable factors.
type PathClass int

const (
	// ClassGeneral uses only basic factors (password, codes, phone,
	// email).
	ClassGeneral PathClass = iota + 1
	// ClassInfo requires identity information such as real name or
	// citizen ID.
	ClassInfo
	// ClassUnique requires biometrics, U2F or other unphishable
	// factors.
	ClassUnique
)

// String names the class.
func (c PathClass) String() string {
	switch c {
	case ClassGeneral:
		return "general"
	case ClassInfo:
		return "info"
	case ClassUnique:
		return "unique"
	}
	return "class(?)"
}

// AuthPath is one authentication path: a conjunction of credential
// factors that, supplied together, achieves Purpose.
type AuthPath struct {
	// ID is unique within a presence, e.g. "reset-1".
	ID string
	// Purpose is what success grants.
	Purpose PathPurpose
	// Factors are ALL required (conjunction). Alternatives are
	// modeled as separate paths.
	Factors []FactorKind
}

// Requires reports whether the path demands factor k.
func (p AuthPath) Requires(k FactorKind) bool {
	for _, f := range p.Factors {
		if f == k {
			return true
		}
	}
	return false
}

// Class classifies the path per §IV.B.1: unique dominates info,
// which dominates general.
func (p AuthPath) Class() PathClass {
	class := ClassGeneral
	for _, f := range p.Factors {
		if f.Unphishable() {
			return ClassUnique
		}
		if f.IdentityLike() {
			class = ClassInfo
		}
	}
	return class
}

// SMSOnly reports whether the path is satisfiable with nothing beyond
// the base attacker profile: the victim's cellphone number and an
// intercepted SMS code. These are the paper's red "fringe" nodes.
func (p AuthPath) SMSOnly() bool {
	if len(p.Factors) == 0 {
		return false
	}
	hasSMS := false
	for _, f := range p.Factors {
		switch f {
		case FactorSMSCode:
			hasSMS = true
		case FactorCellphone:
			// free with the attacker profile
		default:
			return false
		}
	}
	return hasSMS
}

// String renders like "password-reset{PN+SC}".
func (p AuthPath) String() string {
	s := p.Purpose.String() + "{"
	for i, f := range p.Factors {
		if i > 0 {
			s += "+"
		}
		s += f.Short()
	}
	return s + "}"
}

// MaskSpec describes which characters of a digit-string field remain
// visible on the profile page. The zero value means unmasked.
// Different services masking different positions is exactly the
// inconsistency the combining attack of §IV.B.2 exploits.
type MaskSpec struct {
	// VisiblePrefix is the count of leading characters shown.
	VisiblePrefix int
	// VisibleSuffix is the count of trailing characters shown.
	VisibleSuffix int
	// Masked indicates the field is masked at all; when false the
	// whole value is shown regardless of the prefix/suffix counts.
	Masked bool
}

// Unmasked is the zero MaskSpec, shown in full.
var Unmasked = MaskSpec{}

// Exposure records that a presence displays Field on its post-login
// user interface, under Mask.
type Exposure struct {
	Field InfoField
	Mask  MaskSpec
}

// Presence is one platform's incarnation of a service: its signup
// methods, authentication paths, post-login exposure and SSO bindings.
type Presence struct {
	Platform      Platform
	SignupMethods []SignupMethod
	Paths         []AuthPath
	Exposes       []Exposure
	// BoundTo names services whose authenticated session unlocks this
	// presence without further authentication (the Gmail→Expedia
	// example of §III.D).
	BoundTo []string
	// EmailProvider names the service hosting the account's registered
	// mailbox. Controlling that service satisfies this presence's
	// email-code and email-link factors — the paper's "Emails are the
	// gateway" insight. Empty means no email binding.
	EmailProvider string
}

// ExposedFields returns the set of exposed fields regardless of mask.
func (pr *Presence) ExposedFields() InfoSet {
	s := make(InfoSet, len(pr.Exposes))
	for _, e := range pr.Exposes {
		s[e.Field] = true
	}
	return s
}

// Exposure returns the exposure record for field f.
func (pr *Presence) Exposure(f InfoField) (Exposure, bool) {
	for _, e := range pr.Exposes {
		if e.Field == f {
			return e, true
		}
	}
	return Exposure{}, false
}

// TakeoverPaths returns the paths that yield account control: sign-in
// and password reset both do (a reset is followed by a login the
// attacker controls); payment reset alone does not.
func (pr *Presence) TakeoverPaths() []AuthPath {
	var out []AuthPath
	for _, p := range pr.Paths {
		if p.Purpose == PurposeSignIn || p.Purpose == PurposeReset {
			out = append(out, p)
		}
	}
	return out
}

// HasSMSOnlyPath reports whether any takeover path is SMS-only.
func (pr *Presence) HasSMSOnlyPath() bool {
	for _, p := range pr.TakeoverPaths() {
		if p.SMSOnly() {
			return true
		}
	}
	return false
}

// ServiceSpec is the static description of one online service, as the
// paper's Authentication Process module would record it after probing
// the real site.
type ServiceSpec struct {
	// Name is unique within a catalog, e.g. "gmail" or "svc-042".
	Name string
	// Domain is the service category.
	Domain Domain
	// Presences holds the web and/or mobile incarnations.
	Presences []Presence
}

// Presence returns the presence for platform p.
func (s *ServiceSpec) Presence(p Platform) (*Presence, bool) {
	for i := range s.Presences {
		if s.Presences[i].Platform == p {
			return &s.Presences[i], true
		}
	}
	return nil, false
}

// AccountID identifies one node of the ecosystem: a service presence.
type AccountID struct {
	Service  string
	Platform Platform
}

// String renders like "gmail/web".
func (a AccountID) String() string {
	return a.Service + "/" + a.Platform.String()
}

// Catalog is an immutable collection of service specs with name
// lookup. Build with NewCatalog.
type Catalog struct {
	services []*ServiceSpec
	byName   map[string]*ServiceSpec
}

// NewCatalog copies specs into a catalog. Duplicate names are an
// error: the ecosystem graph keys nodes by service name. Names are
// interned on the way in — every catalog built from the same
// vocabulary (countermeasure rebuilds, sweep clones) keys its maps on
// the same canonical string instances, so lookups compare pointers
// before bytes and clones add no name storage.
func NewCatalog(specs []*ServiceSpec) (*Catalog, error) {
	c := &Catalog{
		services: make([]*ServiceSpec, 0, len(specs)),
		byName:   make(map[string]*ServiceSpec, len(specs)),
	}
	for _, s := range specs {
		if s == nil {
			return nil, fmt.Errorf("ecosys: nil service spec")
		}
		if s.Name == "" {
			return nil, fmt.Errorf("ecosys: service with empty name")
		}
		s.Name = intern.String(s.Name)
		if _, dup := c.byName[s.Name]; dup {
			return nil, fmt.Errorf("ecosys: duplicate service name %q", s.Name)
		}
		c.byName[s.Name] = s
		c.services = append(c.services, s)
	}
	return c, nil
}

// CloneSpecs deep-copies every service specification of the catalog,
// preserving order. Countermeasure policies patch the copies and
// rebuild a catalog, so before/after comparisons never share state.
func (c *Catalog) CloneSpecs() []*ServiceSpec {
	out := make([]*ServiceSpec, 0, len(c.services))
	for _, svc := range c.services {
		cp := &ServiceSpec{Name: svc.Name, Domain: svc.Domain}
		for _, pr := range svc.Presences {
			npr := Presence{
				Platform:      pr.Platform,
				SignupMethods: append([]SignupMethod(nil), pr.SignupMethods...),
				Exposes:       append([]Exposure(nil), pr.Exposes...),
				BoundTo:       append([]string(nil), pr.BoundTo...),
				EmailProvider: pr.EmailProvider,
			}
			for _, p := range pr.Paths {
				npr.Paths = append(npr.Paths, AuthPath{
					ID: p.ID, Purpose: p.Purpose,
					Factors: append([]FactorKind(nil), p.Factors...),
				})
			}
			cp.Presences = append(cp.Presences, npr)
		}
		out = append(out, cp)
	}
	return out
}

// MustCatalog is NewCatalog that panics on error; for use with
// compile-time-constant datasets.
func MustCatalog(specs []*ServiceSpec) *Catalog {
	c, err := NewCatalog(specs)
	if err != nil {
		panic(err)
	}
	return c
}

// Services returns the specs in insertion order. Callers must not
// mutate the returned slice.
func (c *Catalog) Services() []*ServiceSpec { return c.services }

// ByName looks a service up by name.
func (c *Catalog) ByName(name string) (*ServiceSpec, bool) {
	s, ok := c.byName[name]
	return s, ok
}

// Len returns the number of services.
func (c *Catalog) Len() int { return len(c.services) }

// PresenceOf resolves an AccountID to its presence.
func (c *Catalog) PresenceOf(id AccountID) (*Presence, bool) {
	s, ok := c.byName[id.Service]
	if !ok {
		return nil, false
	}
	return s.Presence(id.Platform)
}

// CountPlatform returns how many services exist on platform p.
func (c *Catalog) CountPlatform(p Platform) int {
	n := 0
	for _, s := range c.services {
		if _, ok := s.Presence(p); ok {
			n++
		}
	}
	return n
}

// AttackerProfile (AP in the paper's notation) describes the assumed
// attacker: inherent capabilities expressed as credential factors the
// attacker can always supply, plus victim information already known
// (e.g. from a leaked database).
type AttackerProfile struct {
	// Capabilities are factors the attacker can produce on demand.
	// The paper's baseline is {PN, SC}: the victim's phone number and
	// SMS-code interception.
	Capabilities FactorSet
	// KnownInfo is victim information known a priori (targeted attack
	// mode may include home address, etc.).
	KnownInfo InfoSet
}

// BaselineAttacker returns the paper's baseline profile: cellphone
// number plus SMS-code interception.
func BaselineAttacker() AttackerProfile {
	return AttackerProfile{
		Capabilities: NewFactorSet(FactorCellphone, FactorSMSCode),
		KnownInfo:    make(InfoSet),
	}
}

// Clone deep-copies the profile.
func (a AttackerProfile) Clone() AttackerProfile {
	return AttackerProfile{
		Capabilities: a.Capabilities.Clone(),
		KnownInfo:    a.KnownInfo.Clone(),
	}
}

// Factors returns every factor the profile can currently supply:
// inherent capabilities plus factors derived from known information.
func (a AttackerProfile) Factors() FactorSet {
	return a.Capabilities.Union(a.KnownInfo.Factors())
}
