// Package ecosys defines the data model of the Online Account
// Ecosystem: credential factors, personal-information fields,
// authentication paths, service specifications and the attacker
// profile. Every other package — the ActFort analysis pipeline, the
// telecom substrate, the live service platform and the attack
// orchestrator — speaks these types.
//
// The model follows the paper's Table II notation: a service account
// exposes a personal-information attribute set (PIA) after login and
// accepts one or more authentication paths, each a conjunction of
// credential factors (CFA). The reciprocal transformation between
// exposed information and credential factors is captured by
// InfoField.Factor.
package ecosys

// FactorKind enumerates credential factor types. Short codes in the
// comments follow the paper's Fig 11 legend.
type FactorKind int

const (
	// FactorPassword is the account's knowledge secret.
	FactorPassword FactorKind = iota + 1
	// FactorSMSCode (SC) is a one-time code delivered over SMS.
	FactorSMSCode
	// FactorEmailCode (EMC) is a one-time code delivered by email.
	FactorEmailCode
	// FactorEmailLink is a password-reset link delivered by email;
	// operationally equivalent to an email code for attack purposes.
	FactorEmailLink
	// FactorCellphone (PN) is knowledge of the account's phone number.
	FactorCellphone
	// FactorEmailAddress (EM) is knowledge of the account's email.
	FactorEmailAddress
	// FactorRealName (Name) is the user's legal name.
	FactorRealName
	// FactorCitizenID (CID) is the user's citizen/SSN number.
	FactorCitizenID
	// FactorBankcard (BN) is a bound bankcard number.
	FactorBankcard
	// FactorAddress (ADDR) is the user's street address.
	FactorAddress
	// FactorUserID (UID) is the platform username.
	FactorUserID
	// FactorAcquaintance (AQN) is social authentication: naming
	// friends or family members.
	FactorAcquaintance
	// FactorDeviceType (DT) is a device-recognition challenge.
	FactorDeviceType
	// FactorStudentID (SID) is a student-number challenge.
	FactorStudentID
	// FactorSecurityQuestion is a preset knowledge question.
	FactorSecurityQuestion
	// FactorBiometric is fingerprint or facial recognition.
	FactorBiometric
	// FactorU2F is a hardware security key.
	FactorU2F
	// FactorCustomerService (AS) is a human-assisted reset channel.
	FactorCustomerService
	// FactorLinkedAccount is SSO: a live session on a bound account.
	FactorLinkedAccount
	// FactorBuiltinPush is the paper's proposed countermeasure: an
	// OS-level encrypted authentication push (Fig 8). It never
	// traverses the GSM SMS plane.
	FactorBuiltinPush

	factorKindCount = int(FactorBuiltinPush)
)

var factorNames = map[FactorKind]string{
	FactorPassword:         "password",
	FactorSMSCode:          "sms-code",
	FactorEmailCode:        "email-code",
	FactorEmailLink:        "email-link",
	FactorCellphone:        "cellphone-number",
	FactorEmailAddress:     "email-address",
	FactorRealName:         "real-name",
	FactorCitizenID:        "citizen-id",
	FactorBankcard:         "bankcard-number",
	FactorAddress:          "address",
	FactorUserID:           "user-id",
	FactorAcquaintance:     "acquaintance",
	FactorDeviceType:       "device-type",
	FactorStudentID:        "student-id",
	FactorSecurityQuestion: "security-question",
	FactorBiometric:        "biometric",
	FactorU2F:              "u2f-key",
	FactorCustomerService:  "customer-service",
	FactorLinkedAccount:    "linked-account",
	FactorBuiltinPush:      "builtin-push",
}

var factorShort = map[FactorKind]string{
	FactorPassword:         "PW",
	FactorSMSCode:          "SC",
	FactorEmailCode:        "EMC",
	FactorEmailLink:        "EML",
	FactorCellphone:        "PN",
	FactorEmailAddress:     "EM",
	FactorRealName:         "Name",
	FactorCitizenID:        "CID",
	FactorBankcard:         "BN",
	FactorAddress:          "ADDR",
	FactorUserID:           "UID",
	FactorAcquaintance:     "AQN",
	FactorDeviceType:       "DT",
	FactorStudentID:        "SID",
	FactorSecurityQuestion: "SQ",
	FactorBiometric:        "BIO",
	FactorU2F:              "U2F",
	FactorCustomerService:  "AS",
	FactorLinkedAccount:    "LNK",
	FactorBuiltinPush:      "PUSH",
}

// String returns the long lowercase name, e.g. "sms-code".
func (k FactorKind) String() string {
	if s, ok := factorNames[k]; ok {
		return s
	}
	return "factor(?)"
}

// Short returns the paper's Fig 11 legend code, e.g. "SC".
func (k FactorKind) Short() string {
	if s, ok := factorShort[k]; ok {
		return s
	}
	return "?"
}

// Valid reports whether k is a defined factor kind.
func (k FactorKind) Valid() bool {
	return k >= FactorPassword && int(k) <= factorKindCount
}

// AllFactorKinds returns every defined factor kind in declaration
// order. The returned slice is fresh and safe to mutate.
func AllFactorKinds() []FactorKind {
	out := make([]FactorKind, 0, factorKindCount)
	for k := FactorPassword; int(k) <= factorKindCount; k++ {
		out = append(out, k)
	}
	return out
}

// Unphishable reports whether the factor cannot be supplied by an
// attacker who has only intercepted communications and harvested
// personal information: biometrics, hardware keys and the encrypted
// built-in push (the paper's "most secure authentication" insight).
func (k FactorKind) Unphishable() bool {
	switch k {
	case FactorBiometric, FactorU2F, FactorBuiltinPush:
		return true
	}
	return false
}

// IdentityLike reports whether the factor is personal identity
// information (the paper's "info path" ingredients) rather than a
// possession or secret.
func (k FactorKind) IdentityLike() bool {
	switch k {
	case FactorRealName, FactorCitizenID, FactorBankcard, FactorAddress,
		FactorAcquaintance, FactorStudentID, FactorDeviceType:
		return true
	}
	return false
}

// FactorSet is an immutable-by-convention set of credential factors.
// The zero value is the empty set.
type FactorSet map[FactorKind]bool

// NewFactorSet builds a set from the given kinds.
func NewFactorSet(kinds ...FactorKind) FactorSet {
	s := make(FactorSet, len(kinds))
	for _, k := range kinds {
		s[k] = true
	}
	return s
}

// Has reports membership.
func (s FactorSet) Has(k FactorKind) bool { return s[k] }

// Clone returns an independent copy (copy-at-boundary).
func (s FactorSet) Clone() FactorSet {
	out := make(FactorSet, len(s))
	for k, v := range s {
		if v {
			out[k] = true
		}
	}
	return out
}

// Union merges other into a new set.
func (s FactorSet) Union(other FactorSet) FactorSet {
	out := s.Clone()
	for k, v := range other {
		if v {
			out[k] = true
		}
	}
	return out
}

// Sorted returns members in declaration order for stable output.
func (s FactorSet) Sorted() []FactorKind {
	out := make([]FactorKind, 0, len(s))
	for _, k := range AllFactorKinds() {
		if s[k] {
			out = append(out, k)
		}
	}
	return out
}
