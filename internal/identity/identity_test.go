package identity

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestPersonaDeterministic(t *testing.T) {
	g1 := NewGenerator(42)
	g2 := NewGenerator(42)
	for i := 0; i < 50; i++ {
		a, b := g1.Persona(i), g2.Persona(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("persona %d differs between identically seeded generators:\n%+v\n%+v", i, a, b)
		}
	}
}

func TestPersonaSeedSensitivity(t *testing.T) {
	a := NewGenerator(1).Persona(0)
	b := NewGenerator(2).Persona(0)
	if a.RealName == b.RealName && a.CitizenID == b.CitizenID && a.Bankcard == b.Bankcard {
		t.Fatalf("different seeds produced identical persona: %+v", a)
	}
}

func TestPersonaOrderIndependence(t *testing.T) {
	g := NewGenerator(7)
	later := g.Persona(13)
	earlier := g.Persona(4)
	g2 := NewGenerator(7)
	if !reflect.DeepEqual(g2.Persona(4), earlier) || !reflect.DeepEqual(g2.Persona(13), later) {
		t.Fatal("persona output depends on generation order")
	}
}

func TestPhoneUniqueness(t *testing.T) {
	g := NewGenerator(3)
	seen := make(map[string]int)
	for i := 0; i < 2000; i++ {
		p := g.Persona(i)
		if prev, dup := seen[p.Phone]; dup {
			t.Fatalf("phone %s assigned to personas %d and %d", p.Phone, prev, i)
		}
		seen[p.Phone] = i
	}
}

func TestPhoneFormat(t *testing.T) {
	p := NewGenerator(0).Persona(123)
	if !strings.HasPrefix(p.Phone, "+861") {
		t.Errorf("phone %q does not look like a +86 mobile number", p.Phone)
	}
	if len(p.Phone) != len("+86")+11 {
		t.Errorf("phone %q has wrong length %d", p.Phone, len(p.Phone))
	}
}

func TestGeneratedCitizenIDsValid(t *testing.T) {
	g := NewGenerator(11)
	for i := 0; i < 500; i++ {
		id := g.Persona(i).CitizenID
		if !ValidCitizenID(id) {
			t.Fatalf("persona %d has invalid citizen ID %q", i, id)
		}
	}
}

func TestGeneratedBankcardsLuhnValid(t *testing.T) {
	g := NewGenerator(11)
	for i := 0; i < 500; i++ {
		pan := g.Persona(i).Bankcard
		if !ValidLuhn(pan) {
			t.Fatalf("persona %d has non-Luhn bankcard %q", i, pan)
		}
		if len(pan) != 16 {
			t.Fatalf("persona %d bankcard %q not 16 digits", i, pan)
		}
	}
}

func TestValidCitizenIDRejectsCorruption(t *testing.T) {
	id := NewGenerator(5).Persona(9).CitizenID
	cases := []string{
		"",
		id[:17],                              // truncated
		id + "0",                             // too long
		"ABCDEFGHIJKLMNOPQ" + string(id[17]), // non-digits
	}
	for _, c := range cases {
		if ValidCitizenID(c) {
			t.Errorf("ValidCitizenID(%q) = true, want false", c)
		}
	}
	// Flipping any single digit must break the checksum.
	for pos := 0; pos < 17; pos++ {
		mutated := []byte(id)
		mutated[pos] = '0' + (mutated[pos]-'0'+1)%10
		if ValidCitizenID(string(mutated)) {
			t.Errorf("single-digit corruption at %d not detected in %q", pos, mutated)
		}
	}
}

func TestValidLuhnRejectsSingleDigitCorruption(t *testing.T) {
	pan := NewGenerator(5).Persona(3).Bankcard
	for pos := 0; pos < len(pan); pos++ {
		mutated := []byte(pan)
		mutated[pos] = '0' + (mutated[pos]-'0'+1)%10
		if ValidLuhn(string(mutated)) {
			t.Errorf("Luhn failed to detect single-digit corruption at %d in %q", pos, mutated)
		}
	}
}

func TestValidLuhnRejectsGarbage(t *testing.T) {
	for _, c := range []string{"", "1", "abcd", "1234x6789", " 1234"} {
		if ValidLuhn(c) {
			t.Errorf("ValidLuhn(%q) = true, want false", c)
		}
	}
}

// Property: the check character is a pure function of the body, and
// regenerating it always validates.
func TestCitizenIDCheckProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		digits := make([]byte, 17)
		for i := range digits {
			digits[i] = byte('0' + r.Intn(10))
		}
		body := string(digits)
		return ValidCitizenID(body + string(citizenCheckChar(body)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Luhn check digit closes any digit body into a valid PAN.
func TestLuhnCheckProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		length := 8 + int(n%12) // bodies of 8..19 digits
		r := rand.New(rand.NewSource(seed))
		digits := make([]byte, length)
		for i := range digits {
			digits[i] = byte('0' + r.Intn(10))
		}
		body := string(digits)
		return ValidLuhn(body + string(luhnCheckDigit(body)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPersonaFieldsPopulated(t *testing.T) {
	p := NewGenerator(99).Persona(0)
	if p.RealName == "" || p.Email == "" || p.Address == "" ||
		p.UserID == "" || p.StudentID == "" || p.DeviceType == "" {
		t.Fatalf("persona has empty fields: %+v", p)
	}
	if len(p.Acquaintances) < 2 {
		t.Errorf("expected at least 2 acquaintances, got %d", len(p.Acquaintances))
	}
	if len(p.Photos) == 0 {
		t.Error("expected at least one photo record")
	}
	if !strings.Contains(p.Email, "@") {
		t.Errorf("email %q malformed", p.Email)
	}
}

// TestPersonasBatch pins that a run of personas carries each one's own
// index.
func TestPersonasBatch(t *testing.T) {
	g := NewGenerator(1)
	for i := 0; i < 10; i++ {
		if p := g.Persona(i); p.Index != i {
			t.Errorf("persona %d has Index %d", i, p.Index)
		}
	}
}

func TestNegativeIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Persona(-1) did not panic")
		}
	}()
	NewGenerator(0).Persona(-1)
}

func BenchmarkPersona(b *testing.B) {
	g := NewGenerator(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Persona(i % 4096)
	}
}

// TestRefAccessorsMatchPersona is the lazy-derivation property test:
// every on-demand Ref accessor must return exactly the field the full
// Persona materialization produces, across seeds and indices, and the
// Append forms must agree with their string twins when handed a dirty
// reusable buffer.
func TestRefAccessorsMatchPersona(t *testing.T) {
	buf := []byte("garbage-prefix")[:0]
	for _, seed := range []int64{0, 1, 42, -9000} {
		g := NewGenerator(seed)
		for _, i := range []int{0, 1, 7, 999, 123456} {
			r := g.Ref(i)
			p := g.Persona(i)
			if r.idx != i {
				t.Fatalf("Ref(%d).idx = %d", i, r.idx)
			}
			checks := []struct {
				name, got, want string
			}{
				{"RealName", r.RealName(), p.RealName},
				{"Phone", r.Phone(), p.Phone},
				{"CitizenID", r.CitizenID(), p.CitizenID},
				{"Address", r.Address(), p.Address},
				{"Bankcard", r.Bankcard(), p.Bankcard},
				{"Email", r.Email(), p.Email},
				{"UserID", r.UserID(), p.UserID},
				{"StudentID", r.StudentID(), p.StudentID},
				{"DeviceType", r.DeviceType(), p.DeviceType},
			}
			for _, c := range checks {
				if c.got != c.want {
					t.Fatalf("seed %d idx %d: %s lazy %q != eager %q", seed, i, c.name, c.got, c.want)
				}
			}
			appends := []struct {
				name string
				fn   func([]byte) []byte
				want string
			}{
				{"AppendPhone", r.AppendPhone, p.Phone},
				{"AppendCitizenID", r.AppendCitizenID, p.CitizenID},
				{"AppendAddress", r.AppendAddress, p.Address},
				{"AppendBankcard", r.AppendBankcard, p.Bankcard},
				{"AppendEmail", r.AppendEmail, p.Email},
				{"AppendUserID", r.AppendUserID, p.UserID},
				{"AppendStudentID", r.AppendStudentID, p.StudentID},
			}
			for _, c := range appends {
				buf = c.fn(buf[:0])
				if string(buf) != c.want {
					t.Fatalf("seed %d idx %d: %s into reused buffer = %q, want %q", seed, i, c.name, buf, c.want)
				}
			}
			if got := r.Persona(); !reflect.DeepEqual(got, p) {
				t.Fatalf("seed %d idx %d: Ref.Persona() diverges:\nlazy  %+v\neager %+v", seed, i, got, p)
			}
		}
	}
}
