// Package attack orchestrates the Chain Reaction Attack of §V against
// the live service platform: it takes an ActFort attack plan, executes
// each compromise step over HTTP — intercepting SMS codes off the
// simulated air interface, reading captured mailboxes for email codes,
// replaying harvested personal information, combining inconsistently
// masked values — and accumulates the victim dossier that unlocks the
// next step.
package attack

import (
	"regexp"
	"strings"
	"sync"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/mask"
)

// idScanRe pulls a citizen ID out of a rendered photo backup entry
// ("citizen_id_scan.jpg[330106...]").
var idScanRe = regexp.MustCompile(`\[([0-9]{17}[0-9X])\]`)

// Knowledge is the attacker's accumulating dossier on one victim: the
// Initial Attack Database (IAD) of §III.E, realized with concrete
// values instead of field names.
type Knowledge struct {
	mu sync.Mutex
	// phone is the victim's cellphone number (the attack precondition,
	// from a leaked database or phishing WiFi).
	phone string
	// values holds fully known field values.
	values map[ecosys.InfoField]string
	// views holds masked observations awaiting combination.
	views map[ecosys.InfoField][]string
	// sessions maps service name -> live session token.
	sessions map[string]string
}

// NewKnowledge starts a dossier from the victim's phone number.
func NewKnowledge(phone string) *Knowledge {
	return &Knowledge{
		phone:    phone,
		values:   make(map[ecosys.InfoField]string),
		views:    make(map[ecosys.InfoField][]string),
		sessions: make(map[string]string),
	}
}

// Phone returns the victim's number.
func (k *Knowledge) Phone() string { return k.phone }

// Ingest records one displayed profile value. Masked values (contain
// the mask character) are stored as views and combined with earlier
// views of the same field; a combination that reveals every position
// is promoted to a full value — the §IV.B.2 combining attack.
func (k *Knowledge) Ingest(field ecosys.InfoField, displayed string) {
	if displayed == "" {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if field == ecosys.InfoPhotos {
		// Cloud photo backups may contain a readable ID scan.
		if m := idScanRe.FindStringSubmatch(displayed); m != nil {
			if _, known := k.values[ecosys.InfoCitizenID]; !known {
				k.values[ecosys.InfoCitizenID] = m[1]
			}
		}
	}
	if !strings.ContainsRune(displayed, mask.MaskChar) {
		k.values[field] = displayed
		return
	}
	k.views[field] = append(k.views[field], displayed)
	if _, known := k.values[field]; known {
		return
	}
	if full, ok := mask.Complete(k.views[field]...); ok {
		k.values[field] = full
	}
}

// Value returns the fully known value for a field.
func (k *Knowledge) Value(field ecosys.InfoField) (string, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	v, ok := k.values[field]
	return v, ok
}

// Views returns the masked observations of a field (diagnostics).
func (k *Knowledge) Views(field ecosys.InfoField) []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]string(nil), k.views[field]...)
}

// SetSession records control of a service.
func (k *Knowledge) SetSession(service, token string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.sessions[service] = token
}

// Session returns the token controlling a service.
func (k *Knowledge) Session(service string) (string, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	t, ok := k.sessions[service]
	return t, ok
}

// factorField maps credential factors to the dossier field supplying
// them (the inverse of ecosys.InfoField.Factor for value lookup).
var factorField = map[ecosys.FactorKind]ecosys.InfoField{
	ecosys.FactorRealName:     ecosys.InfoRealName,
	ecosys.FactorCitizenID:    ecosys.InfoCitizenID,
	ecosys.FactorBankcard:     ecosys.InfoBankcard,
	ecosys.FactorAddress:      ecosys.InfoAddress,
	ecosys.FactorUserID:       ecosys.InfoUserID,
	ecosys.FactorStudentID:    ecosys.InfoStudentID,
	ecosys.FactorDeviceType:   ecosys.InfoDeviceType,
	ecosys.FactorEmailAddress: ecosys.InfoEmailAddress,
}

// FactorValue resolves a credential factor to a concrete submission
// value from the dossier. Acquaintance factors answer with the first
// known acquaintance name.
func (k *Knowledge) FactorValue(f ecosys.FactorKind) (string, bool) {
	switch f {
	case ecosys.FactorCellphone:
		return k.phone, k.phone != ""
	case ecosys.FactorAcquaintance:
		v, ok := k.Value(ecosys.InfoAcquaintance)
		if !ok {
			return "", false
		}
		// Profile pages join names with ", "; any one of them passes.
		if i := strings.Index(v, ", "); i > 0 {
			return v[:i], true
		}
		return v, true
	}
	if field, ok := factorField[f]; ok {
		return k.Value(field)
	}
	return "", false
}
