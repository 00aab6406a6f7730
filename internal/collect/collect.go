// Package collect implements ActFort's Personal Information Collection
// stage (§III.C): classifying what accounts expose into the paper's
// five categories, measuring exposure rates across the ecosystem
// (Table I), and harvesting concrete (masked) values from a persona's
// profile page — the data the live attack scrapes after each login.
package collect

import (
	"strings"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/identity"
	"github.com/actfort/actfort/internal/mask"
)

// ExposureStats aggregates post-login information exposure for one
// platform — the rows of Table I.
type ExposureStats struct {
	Platform ecosys.Platform
	// Accounts is the number of presences measured (Table I
	// denominators: 187 web, 56 mobile).
	Accounts int
	// FieldCounts counts accounts exposing each field.
	FieldCounts map[ecosys.InfoField]int
	// CategoryCounts counts accounts exposing at least one field of
	// each category.
	CategoryCounts map[ecosys.InfoCategory]int
}

// Measure computes exposure statistics over one platform.
func Measure(cat *ecosys.Catalog, platform ecosys.Platform) ExposureStats {
	st := ExposureStats{
		Platform:       platform,
		FieldCounts:    make(map[ecosys.InfoField]int),
		CategoryCounts: make(map[ecosys.InfoCategory]int),
	}
	for _, svc := range cat.Services() {
		pr, ok := svc.Presence(platform)
		if !ok {
			continue
		}
		st.Accounts++
		cats := make(map[ecosys.InfoCategory]bool)
		for f := range pr.ExposedFields() {
			st.FieldCounts[f]++
			cats[f.Category()] = true
		}
		for c := range cats {
			st.CategoryCounts[c]++
		}
	}
	return st
}

// Pct returns the percentage of accounts exposing field f.
func (s ExposureStats) Pct(f ecosys.InfoField) float64 {
	if s.Accounts == 0 {
		return 0
	}
	return 100 * float64(s.FieldCounts[f]) / float64(s.Accounts)
}

// Harvest renders the values a persona's profile page displays for a
// presence, with the presence's masks applied — exactly what an
// attacker scrapes after logging in. Fields with no persona value
// (histories) render as synthetic record lines.
func Harvest(pr *ecosys.Presence, p identity.Persona) map[ecosys.InfoField]string {
	out := make(map[ecosys.InfoField]string, len(pr.Exposes))
	for _, e := range pr.Exposes {
		out[e.Field] = mask.Apply(rawValue(e.Field, p), e.Mask)
	}
	return out
}

// rawValue maps a field to the persona's underlying value.
func rawValue(f ecosys.InfoField, p identity.Persona) string {
	switch f {
	case ecosys.InfoRealName:
		return p.RealName
	case ecosys.InfoCitizenID:
		return p.CitizenID
	case ecosys.InfoCellphone:
		return p.Phone
	case ecosys.InfoEmailAddress:
		return p.Email
	case ecosys.InfoAddress:
		return p.Address
	case ecosys.InfoUserID:
		return p.UserID
	case ecosys.InfoBankcard:
		return p.Bankcard
	case ecosys.InfoStudentID:
		return p.StudentID
	case ecosys.InfoDeviceType:
		return p.DeviceType
	case ecosys.InfoAcquaintance:
		return strings.Join(p.Acquaintances, ", ")
	case ecosys.InfoPhotos:
		// A citizen-ID scan in a cloud backup is readable by whoever
		// opens it (§IV.B.1): render its content inline so a scraper
		// obtains the number, exactly as a human attacker would.
		names := make([]string, 0, len(p.Photos))
		for _, ph := range p.Photos {
			if ph == "citizen_id_scan.jpg" {
				ph += "[" + p.CitizenID + "]"
			}
			names = append(names, ph)
		}
		return strings.Join(names, ", ")
	case ecosys.InfoBindingAccount:
		return "linked accounts on file"
	case ecosys.InfoOrderHistory:
		return "order history: 12 records"
	case ecosys.InfoChatHistory:
		return "chat history: 240 messages"
	}
	return ""
}
