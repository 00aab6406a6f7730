// Package identity generates deterministic synthetic personas for the
// Online Account Ecosystem simulation.
//
// The paper's measurement and attack studies operate on real users'
// personal information (names, citizen IDs, cellphone numbers, bankcard
// numbers, addresses, acquaintances). This package substitutes a
// seeded generator that produces structurally valid equivalents:
// citizen IDs carry a real ISO 7064 MOD 11-2 check digit (the GB 11643
// scheme used by Chinese 18-digit IDs the paper's case studies rely
// on), bankcard numbers are Luhn-valid, and phone numbers follow the
// +86 mobile numbering plan. Every persona is a pure function of
// (seed, index), so experiments are reproducible bit for bit.
//
// Two access models share one draw stream:
//
//   - Persona(i) materializes the complete persona — every field as a
//     heap string — for code that needs the whole record;
//   - Ref(i) is the lazy handle: a (stream-origin, index) pair whose
//     accessors derive single attributes on demand, byte-identical to
//     the materialized fields, without generating the rest. Fixed-
//     position attributes skip straight to their draw (SplitMix64
//     state k steps ahead is one multiply away), names resolve through
//     the interned fullNames table, and Append* variants write into
//     caller-owned buffers so population-scale consumers touch the
//     allocator only for blocks, never per subscriber.
package identity

import (
	"strconv"
	"strings"
)

// Persona is one synthetic user: the complete set of personal
// information fields the paper's Table I tracks, plus the historical
// record artifacts (photos, orders) exploited in the cloud-storage
// attack step.
type Persona struct {
	Index      int
	RealName   string
	CitizenID  string // 18 digits, valid MOD 11-2 check digit
	Phone      string // +86 mobile number, unique per persona
	Email      string
	Address    string
	Bankcard   string // Luhn-valid 16-digit PAN
	UserID     string
	StudentID  string
	DeviceType string
	// Acquaintances holds real names of related personas (the social
	// relationship category of personal information).
	Acquaintances []string
	// Photos models cloud-stored historical records; the paper notes
	// that cloud backups often contain citizen-ID photos.
	Photos []string
}

// Generator produces personas deterministically from a seed.
// The zero value is not usable; construct with NewGenerator.
type Generator struct {
	seed int64
}

// NewGenerator returns a Generator whose output is a pure function of
// seed: Persona(i) is stable across runs and machines.
func NewGenerator(seed int64) *Generator {
	return &Generator{seed: seed}
}

// The draw stream is SplitMix64: from a per-persona origin z0, draw k
// is finalize(z0 + (k+1)·γ). Because the state advance is a plain
// addition, any draw is O(1) reachable without computing the ones
// before it — the property the lazy Ref accessors rest on. It replaced
// the earlier per-persona math/rand.Rand — seeding a rand.Source
// initializes a 607-word lagged-Fibonacci table per subscriber, which
// profiled at ~14% of campaign CPU at population scale. The draw
// sequence differs from the math/rand-backed generation, so
// persona-derived digests (population.Fingerprint) carry a version
// bump (population.FingerprintVersion = 2).
const splitmixGamma = 0x9e3779b97f4a7c15

// finalize is the SplitMix64 output scramble.
func finalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// originOf derives the independent stream origin for persona i so that
// personas can be generated in any order (or in parallel) without
// coordination; the scramble keeps streams decorrelated even for
// adjacent indexes.
func originOf(seed int64, i int) uint64 {
	return finalize(uint64(seed) + uint64(i)*splitmixGamma)
}

// drawAt returns the k-th draw (0-based) of the stream rooted at z0.
func drawAt(z0 uint64, k int) uint64 {
	return finalize(z0 + uint64(k+1)*splitmixGamma)
}

// The fixed draw positions of a persona's stream. Every attribute owns
// a stable slot, shared by the eager Persona builder and the lazy Ref
// accessors, so the two derivations are position-identical by
// construction. Acquaintances and photos follow at drawAcq0 with
// variable length. Inserting a slot is a compatibility break for
// recorded fixtures (population.FingerprintVersion pins it).
const (
	drawSurname = iota
	drawGiven
	drawRegion
	drawYear
	drawMonth
	drawDay
	drawSeq
	drawAddrNum
	drawStreet
	drawDistrict
	drawCity
	drawBankcard
	drawDevice
	drawNAcq
	drawAcq0
)

// Ref is the lazy persona handle: 16 bytes standing in for the whole
// materialized record. Accessors derive attributes on demand from the
// draw stream, byte-identical to the corresponding Persona fields.
// The zero value is persona 0 of seed 0; Refs are comparable and safe
// to copy.
type Ref struct {
	z0  uint64
	idx int
}

// Ref returns the lazy handle for persona i. Negative indexes are
// invalid and panic, matching Persona.
func (g *Generator) Ref(i int) Ref {
	if i < 0 {
		panic("identity: negative persona index")
	}
	return Ref{z0: originOf(g.seed, i), idx: i}
}

// draw is the k-th draw of this persona's stream.
func (r Ref) draw(k int) uint64 { return drawAt(r.z0, k) }

// intn maps draw k uniformly onto [0, n). The modulo bias is below
// 2^-40 for every n this package uses — irrelevant for synthetic
// personas, where only determinism matters.
func (r Ref) intn(k, n int) int { return int(r.draw(k) % uint64(n)) }

// RealName returns the persona's full name, resolved through the
// process-wide interned fullNames table: every persona sharing a
// (surname, given) combination shares one canonical string.
func (r Ref) RealName() string {
	return fullNames[r.intn(drawSurname, len(surnames))][r.intn(drawGiven, len(givenNames))]
}

// DeviceType returns the persona's device model (vocabulary string,
// already canonical).
func (r Ref) DeviceType() string { return deviceTypes[r.intn(drawDevice, len(deviceTypes))] }

// AppendPhone appends the persona's +86 mobile number: prefix 13x-19x
// plus an 8-digit subscriber part derived from the index.
func (r Ref) AppendPhone(b []byte) []byte {
	b = append(b, "+86"...)
	b = append(b, phonePrefixes[r.idx%len(phonePrefixes)]...)
	return appendPadInt(b, int64(r.idx), 8)
}

// Phone returns the persona's phone number as a fresh string.
func (r Ref) Phone() string { return string(r.AppendPhone(make([]byte, 0, 14))) }

// AppendCitizenID appends the 18-character ID: 6-digit region, 8-digit
// birth date, 3-digit sequence, and the MOD 11-2 check character.
func (r Ref) AppendCitizenID(b []byte) []byte {
	start := len(b)
	b = append(b, regionCodes[r.intn(drawRegion, len(regionCodes))]...)
	b = appendPadInt(b, int64(1955+r.intn(drawYear, 50)), 4)
	b = appendPadInt(b, int64(1+r.intn(drawMonth, 12)), 2)
	b = appendPadInt(b, int64(1+r.intn(drawDay, 28)), 2)
	b = appendPadInt(b, int64(r.intn(drawSeq, 1000)), 3)
	return append(b, citizenCheckChar(b[start:]))
}

// CitizenID returns the citizen ID as a fresh string.
func (r Ref) CitizenID() string { return string(r.AppendCitizenID(make([]byte, 0, 18))) }

// AppendAddress appends the street address ("N Street, District
// District, City").
func (r Ref) AppendAddress(b []byte) []byte {
	b = strconv.AppendInt(b, int64(1+r.intn(drawAddrNum, 999)), 10)
	b = append(b, ' ')
	b = append(b, streets[r.intn(drawStreet, len(streets))]...)
	b = append(b, ", "...)
	b = append(b, districts[r.intn(drawDistrict, len(districts))]...)
	b = append(b, " District, "...)
	b = append(b, cities[r.intn(drawCity, len(cities))]...)
	return b
}

// Address returns the address as a fresh string.
func (r Ref) Address() string { return string(r.AppendAddress(make([]byte, 0, 48))) }

// AppendBankcard appends the Luhn-valid 16-digit PAN with a
// recognizable synthetic IIN so test data cannot be mistaken for a
// real card.
func (r Ref) AppendBankcard(b []byte) []byte {
	start := len(b)
	b = append(b, "62"...)
	b = appendPadInt(b, int64(r.draw(drawBankcard)%uint64(1e13)), 13)
	return append(b, luhnCheckDigit(b[start:]))
}

// Bankcard returns the PAN as a fresh string.
func (r Ref) Bankcard() string { return string(r.AppendBankcard(make([]byte, 0, 16))) }

// AppendEmail appends the persona's email address, derived from the
// lowercase name tables and the index.
func (r Ref) AppendEmail(b []byte) []byte {
	b = append(b, surnamesLower[r.intn(drawSurname, len(surnames))]...)
	b = append(b, '.')
	b = append(b, givenNamesLower[r.intn(drawGiven, len(givenNames))]...)
	b = strconv.AppendInt(b, int64(r.idx), 10)
	return append(b, "@mail.example"...)
}

// Email returns the email address as a fresh string.
func (r Ref) Email() string { return string(r.AppendEmail(make([]byte, 0, 32))) }

// AppendUserID appends the service-facing user ID ("u%07d").
func (r Ref) AppendUserID(b []byte) []byte {
	b = append(b, 'u')
	return appendPadInt(b, int64(r.idx), 7)
}

// UserID returns the user ID as a fresh string.
func (r Ref) UserID() string { return string(r.AppendUserID(make([]byte, 0, 8))) }

// AppendStudentID appends the student ID ("S%08d" of 20100000+index).
func (r Ref) AppendStudentID(b []byte) []byte {
	b = append(b, 'S')
	return appendPadInt(b, int64(20100000+r.idx), 8)
}

// StudentID returns the student ID as a fresh string.
func (r Ref) StudentID() string { return string(r.AppendStudentID(make([]byte, 0, 9))) }

// Persona materializes the complete record the handle refers to —
// the eager twin, byte-identical field by field.
func (r Ref) Persona() Persona {
	p := Persona{
		Index:      r.idx,
		RealName:   r.RealName(),
		CitizenID:  r.CitizenID(),
		Phone:      r.Phone(),
		Email:      r.Email(),
		Address:    r.Address(),
		Bankcard:   r.Bankcard(),
		UserID:     r.UserID(),
		StudentID:  r.StudentID(),
		DeviceType: r.DeviceType(),
	}
	nAcq := 2 + r.intn(drawNAcq, 4)
	p.Acquaintances = make([]string, 0, nAcq)
	for k := 0; k < nAcq; k++ {
		s := r.intn(drawAcq0+2*k, len(surnames))
		g := r.intn(drawAcq0+2*k+1, len(givenNames))
		p.Acquaintances = append(p.Acquaintances, fullNames[s][g])
	}
	nPhotos := r.intn(drawAcq0+2*nAcq, 3)
	var buf [24]byte
	for k := 0; k <= nPhotos; k++ {
		name := append(buf[:0], "IMG_"...)
		name = appendPadInt(name, int64(r.idx), 4)
		name = append(name, '_')
		name = strconv.AppendInt(name, int64(k), 10)
		name = append(name, ".jpg"...)
		p.Photos = append(p.Photos, string(name))
	}
	if r.intn(drawAcq0+2*nAcq+1, 4) == 0 { // some users back up an ID photo to the cloud
		p.Photos = append(p.Photos, "citizen_id_scan.jpg")
	}
	return p
}

// Persona returns the i-th persona, fully materialized. Negative
// indexes are invalid and panic, matching slice semantics.
func (g *Generator) Persona(i int) Persona {
	return g.Ref(i).Persona()
}

// phonePrefixes are the +86 mobile prefixes personas cycle through.
var phonePrefixes = []string{"138", "139", "150", "159", "176", "186", "188", "199"}

// appendPadInt appends v zero-padded to at least width digits —
// fmt's %0*d minimum-width semantics, allocation-free.
func appendPadInt(b []byte, v int64, width int) []byte {
	var tmp [20]byte
	d := strconv.AppendInt(tmp[:0], v, 10)
	for n := len(d); n < width; n++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// fullNames is the interned name vocabulary: every (surname, given)
// combination as one canonical "Surname Given" string, built once at
// init. Personas and acquaintances resolve names through it, so a
// population of any size retains at most len(surnames)×len(givenNames)
// name strings.
var fullNames = func() [][]string {
	out := make([][]string, len(surnames))
	for s, sur := range surnames {
		out[s] = make([]string, len(givenNames))
		for g, giv := range givenNames {
			out[s][g] = sur + " " + giv
		}
	}
	return out
}()

// surnamesLower and givenNamesLower are the lowercase twins the email
// derivation uses, precomputed so per-persona emails never call
// strings.ToLower.
var surnamesLower = lowerAll(surnames)
var givenNamesLower = lowerAll(givenNames)

// lowerAll lowercases a vocabulary once.
func lowerAll(in []string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = strings.ToLower(s)
	}
	return out
}

// citizenCheckChar computes the ISO 7064 MOD 11-2 check character for
// the first 17 digits of a citizen ID, over bytes or a string so the
// append-based lazy accessors avoid a string conversion per call. It
// panics if body is not 17 decimal digits; ValidCitizenID checks
// untrusted input.
func citizenCheckChar[T ~string | ~[]byte](body T) byte {
	if len(body) != 17 {
		panic("identity: citizen ID body must be 17 digits")
	}
	weights := [17]int{7, 9, 10, 5, 8, 4, 2, 1, 6, 3, 7, 9, 10, 5, 8, 4, 2}
	sum := 0
	for i := 0; i < 17; i++ {
		d := body[i]
		if d < '0' || d > '9' {
			panic("identity: citizen ID body must be decimal digits")
		}
		sum += int(d-'0') * weights[i]
	}
	checkMap := [11]byte{'1', '0', 'X', '9', '8', '7', '6', '5', '4', '3', '2'}
	return checkMap[sum%11]
}

// ValidCitizenID reports whether id is an 18-character citizen ID with
// a correct MOD 11-2 check character.
func ValidCitizenID(id string) bool {
	if len(id) != 18 {
		return false
	}
	for i := 0; i < 17; i++ {
		if id[i] < '0' || id[i] > '9' {
			return false
		}
	}
	last := id[17]
	if last != 'X' && (last < '0' || last > '9') {
		return false
	}
	return citizenCheckChar(id[:17]) == last
}

// luhnCheckDigit computes the Luhn check digit for a digit string,
// over bytes or a string. It panics on non-digit input; ValidLuhn
// checks untrusted input.
func luhnCheckDigit[T ~string | ~[]byte](body T) byte {
	sum := 0
	// Walking right to left, the rightmost body digit is doubled
	// because the check digit will occupy the final (undoubled) slot.
	double := true
	for i := len(body) - 1; i >= 0; i-- {
		d := body[i]
		if d < '0' || d > '9' {
			panic("identity: bankcard body must be decimal digits")
		}
		v := int(d - '0')
		if double {
			v *= 2
			if v > 9 {
				v -= 9
			}
		}
		double = !double
		sum += v
	}
	return byte('0' + (10-sum%10)%10)
}

// ValidLuhn reports whether the full digit string (including its final
// check digit) passes the Luhn checksum.
func ValidLuhn(pan string) bool {
	if len(pan) < 2 {
		return false
	}
	for i := 0; i < len(pan); i++ {
		if pan[i] < '0' || pan[i] > '9' {
			return false
		}
	}
	return luhnCheckDigit(pan[:len(pan)-1]) == pan[len(pan)-1]
}
