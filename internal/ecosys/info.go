package ecosys

// InfoField enumerates the personal-information fields an account may
// expose on its post-login user interface (the rows of the paper's
// Table I, plus the historical-record artifacts used in §IV.B.1).
type InfoField int

const (
	// InfoRealName is the user's legal name.
	InfoRealName InfoField = iota + 1
	// InfoCitizenID is the citizen/SSN number (possibly masked).
	InfoCitizenID
	// InfoCellphone is the bound phone number (possibly masked).
	InfoCellphone
	// InfoEmailAddress is the bound email address.
	InfoEmailAddress
	// InfoAddress is the street/delivery address.
	InfoAddress
	// InfoUserID is the platform username.
	InfoUserID
	// InfoBindingAccount names linked third-party accounts (SSO).
	InfoBindingAccount
	// InfoAcquaintance exposes friend/family names.
	InfoAcquaintance
	// InfoDeviceType exposes the login device model.
	InfoDeviceType
	// InfoBankcard is the bound bankcard number (always masked in
	// practice; masks differ per service, which the combining attack
	// of §IV.B.2 exploits).
	InfoBankcard
	// InfoStudentID is a student number (education services).
	InfoStudentID
	// InfoPhotos represents cloud-stored photo backups, which the
	// paper notes often include citizen-ID scans.
	InfoPhotos
	// InfoOrderHistory is shopping/booking history.
	InfoOrderHistory
	// InfoChatHistory is message history.
	InfoChatHistory

	infoFieldCount = int(InfoChatHistory)
)

var infoNames = map[InfoField]string{
	InfoRealName:       "real-name",
	InfoCitizenID:      "citizen-id",
	InfoCellphone:      "cellphone-number",
	InfoEmailAddress:   "email-address",
	InfoAddress:        "address",
	InfoUserID:         "user-id",
	InfoBindingAccount: "binding-account",
	InfoAcquaintance:   "acquaintance-info",
	InfoDeviceType:     "device-type",
	InfoBankcard:       "bankcard-number",
	InfoStudentID:      "student-id",
	InfoPhotos:         "photos",
	InfoOrderHistory:   "order-history",
	InfoChatHistory:    "chat-history",
}

// String returns the lowercase field name.
func (f InfoField) String() string {
	if s, ok := infoNames[f]; ok {
		return s
	}
	return "info(?)"
}

// Valid reports whether f is a defined info field.
func (f InfoField) Valid() bool {
	return f >= InfoRealName && int(f) <= infoFieldCount
}

// AllInfoFields returns every defined field in declaration order.
func AllInfoFields() []InfoField {
	out := make([]InfoField, 0, infoFieldCount)
	for f := InfoRealName; int(f) <= infoFieldCount; f++ {
		out = append(out, f)
	}
	return out
}

// InfoCategory is the paper's five-way classification of personal
// information (§III.C).
type InfoCategory int

const (
	// CategoryIdentity covers legal identity data.
	CategoryIdentity InfoCategory = iota + 1
	// CategoryAccount covers account coordinates and bindings.
	CategoryAccount
	// CategoryRelationship covers social-relationship data.
	CategoryRelationship
	// CategoryProperty covers financial property data.
	CategoryProperty
	// CategoryHistorical covers activity records.
	CategoryHistorical
)

// String returns the category name.
func (c InfoCategory) String() string {
	switch c {
	case CategoryIdentity:
		return "identity"
	case CategoryAccount:
		return "account"
	case CategoryRelationship:
		return "relationship"
	case CategoryProperty:
		return "property"
	case CategoryHistorical:
		return "historical"
	}
	return "category(?)"
}

// Category classifies the field per §III.C.
func (f InfoField) Category() InfoCategory {
	switch f {
	case InfoRealName, InfoCitizenID, InfoAddress, InfoStudentID:
		return CategoryIdentity
	case InfoCellphone, InfoEmailAddress, InfoUserID, InfoBindingAccount, InfoDeviceType:
		return CategoryAccount
	case InfoAcquaintance:
		return CategoryRelationship
	case InfoBankcard:
		return CategoryProperty
	case InfoPhotos, InfoOrderHistory, InfoChatHistory:
		return CategoryHistorical
	}
	return 0
}

// Factor returns the credential factor an attacker can supply after
// learning this field — the reciprocal transformation at the heart of
// the Chain Reaction Attack. ok is false for fields with no direct
// credential use: order/chat history, and binding-account lists
// (knowing which accounts are linked is reconnaissance — control of a
// linked account is modeled separately via Presence.BoundTo).
func (f InfoField) Factor() (k FactorKind, ok bool) {
	switch f {
	case InfoRealName:
		return FactorRealName, true
	case InfoCitizenID:
		return FactorCitizenID, true
	case InfoCellphone:
		return FactorCellphone, true
	case InfoEmailAddress:
		return FactorEmailAddress, true
	case InfoAddress:
		return FactorAddress, true
	case InfoUserID:
		return FactorUserID, true
	case InfoAcquaintance:
		return FactorAcquaintance, true
	case InfoDeviceType:
		return FactorDeviceType, true
	case InfoBankcard:
		return FactorBankcard, true
	case InfoStudentID:
		return FactorStudentID, true
	case InfoPhotos:
		// Cloud photo backups frequently contain citizen-ID scans
		// (§IV.B.1); we model the optimistic attacker outcome.
		return FactorCitizenID, true
	}
	return 0, false
}

// InfoSet is a set of personal-information fields.
type InfoSet map[InfoField]bool

// NewInfoSet builds a set from the given fields.
func NewInfoSet(fields ...InfoField) InfoSet {
	s := make(InfoSet, len(fields))
	for _, f := range fields {
		s[f] = true
	}
	return s
}

// Clone returns an independent copy.
func (s InfoSet) Clone() InfoSet {
	out := make(InfoSet, len(s))
	for f, v := range s {
		if v {
			out[f] = true
		}
	}
	return out
}

// Add inserts f and returns s for chaining.
func (s InfoSet) Add(f InfoField) InfoSet {
	s[f] = true
	return s
}

// Sorted returns members in declaration order.
func (s InfoSet) Sorted() []InfoField {
	out := make([]InfoField, 0, len(s))
	for _, f := range AllInfoFields() {
		if s[f] {
			out = append(out, f)
		}
	}
	return out
}

// Factors converts the set of known information into the set of
// credential factors it can supply.
func (s InfoSet) Factors() FactorSet {
	out := make(FactorSet)
	for f, v := range s {
		if !v {
			continue
		}
		if k, ok := f.Factor(); ok {
			out[k] = true
		}
	}
	return out
}
