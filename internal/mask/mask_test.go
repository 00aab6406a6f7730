package mask

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/actfort/actfort/internal/ecosys"
)

func spec(pre, suf int) ecosys.MaskSpec {
	return ecosys.MaskSpec{Masked: true, VisiblePrefix: pre, VisibleSuffix: suf}
}

func TestApply(t *testing.T) {
	cases := []struct {
		value string
		spec  ecosys.MaskSpec
		want  string
	}{
		{"123456789012345678", ecosys.Unmasked, "123456789012345678"},
		{"123456789012345678", spec(6, 4), "123456********5678"},
		{"123456789012345678", spec(0, 4), "**************5678"},
		{"1234", spec(2, 2), "1234"},  // nothing left to hide
		{"1234", spec(3, 3), "1234"},  // overlap
		{"1234", spec(-1, 1), "***4"}, // negative clamped
		{"", spec(1, 1), ""},
	}
	for _, c := range cases {
		if got := Apply(c.value, c.spec); got != c.want {
			t.Errorf("Apply(%q,%+v) = %q want %q", c.value, c.spec, got, c.want)
		}
	}
}

func TestRevealedMatchesApply(t *testing.T) {
	f := func(seed int64, pre, suf uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		digits := make([]byte, n)
		for i := range digits {
			digits[i] = byte('0' + r.Intn(10))
		}
		s := spec(int(pre%12), int(suf%12))
		masked := Apply(string(digits), s)
		visible := 0
		for i := 0; i < len(masked); i++ {
			if masked[i] != MaskChar {
				visible++
			}
		}
		return visible == Revealed(n, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCombineRecovery(t *testing.T) {
	secret := "330106198811230417"
	// Three services with inconsistent masks whose windows jointly
	// cover all 18 positions (the §IV.B.2 combining scenario).
	v1 := Apply(secret, spec(6, 0))
	v2 := Apply(secret, spec(0, 6))
	v3 := Apply(secret, spec(12, 0))

	merged, known, err := Combine(v1, v2, v3)
	if err != nil {
		t.Fatal(err)
	}
	if merged != secret {
		t.Fatalf("Combine = %q want %q", merged, secret)
	}
	if known != len(secret) {
		t.Fatalf("known = %d want %d", known, len(secret))
	}
	if !FullyRecovered(merged) {
		t.Error("FullyRecovered = false for complete merge")
	}
}

func TestCombinePartial(t *testing.T) {
	secret := "6212345678901234"
	v1 := Apply(secret, spec(0, 4))
	v2 := Apply(secret, spec(4, 0))
	merged, known, err := Combine(v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	if known != 8 {
		t.Fatalf("known = %d want 8", known)
	}
	if FullyRecovered(merged) {
		t.Error("partial merge reported as fully recovered")
	}
	if got, ok := Complete(v1, v2); ok {
		t.Errorf("Complete on partial views reported success: %q", got)
	}
}

func TestCombineConflict(t *testing.T) {
	_, _, err := Combine("12**", "13**")
	if err != ErrConflict {
		t.Fatalf("err = %v want ErrConflict", err)
	}
}

func TestCombineLengthMismatch(t *testing.T) {
	_, _, err := Combine("12**", "12***")
	if err != ErrLengthMismatch {
		t.Fatalf("err = %v want ErrLengthMismatch", err)
	}
}

func TestCombineEmpty(t *testing.T) {
	if _, _, err := Combine(); err == nil {
		t.Fatal("Combine() with no views must error")
	}
}

// Property: combining views produced by masking the same secret never
// conflicts and recovers exactly the union of the visible windows.
func TestCombineUnionProperty(t *testing.T) {
	f := func(seed int64, p1, s1, p2, s2 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(12)
		digits := make([]byte, n)
		for i := range digits {
			digits[i] = byte('0' + r.Intn(10))
		}
		secret := string(digits)
		sp1 := spec(int(p1%10), int(s1%10))
		sp2 := spec(int(p2%10), int(s2%10))
		merged, known, err := Combine(Apply(secret, sp1), Apply(secret, sp2))
		if err != nil {
			return false
		}
		// Every revealed char must match the secret.
		for i := 0; i < n; i++ {
			if merged[i] != MaskChar && merged[i] != secret[i] {
				return false
			}
		}
		// Known is at least the max of the two windows.
		r1, r2 := Revealed(n, sp1), Revealed(n, sp2)
		maxR := r1
		if r2 > maxR {
			maxR = r2
		}
		return known >= maxR
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The countermeasure property: under a unified standard, any number of
// views reveals no more than one view does.
func TestUnifiedStandardBlocksCombining(t *testing.T) {
	std := DefaultUnifiedStandard()
	secret := "330106198811230417"
	views := []string{
		Apply(secret, std.CitizenID),
		Apply(secret, std.CitizenID),
		Apply(secret, std.CitizenID),
	}
	merged, known, err := Combine(views...)
	if err != nil {
		t.Fatal(err)
	}
	if known != Revealed(len(secret), std.CitizenID) {
		t.Fatalf("unified masking leaked extra positions: known=%d want %d",
			known, Revealed(len(secret), std.CitizenID))
	}
	if FullyRecovered(merged) {
		t.Fatal("unified masking must not allow full recovery")
	}
}

func TestUnifiedStandardSpecFor(t *testing.T) {
	std := DefaultUnifiedStandard()
	if _, ok := std.SpecFor(ecosys.InfoCitizenID); !ok {
		t.Error("standard must govern citizen IDs")
	}
	if _, ok := std.SpecFor(ecosys.InfoBankcard); !ok {
		t.Error("standard must govern bankcards")
	}
	if _, ok := std.SpecFor(ecosys.InfoRealName); ok {
		t.Error("standard must not govern real names")
	}
	if !strings.Contains(Apply("6212345678901234", std.Bankcard), "1234") {
		t.Error("bankcard standard should show last four digits")
	}
}

func BenchmarkApply(b *testing.B) {
	s := spec(6, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Apply("330106198811230417", s)
	}
}

func BenchmarkCombine(b *testing.B) {
	secret := "330106198811230417"
	v1 := Apply(secret, spec(6, 0))
	v2 := Apply(secret, spec(0, 6))
	v3 := Apply(secret, spec(10, 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, _ = Combine(v1, v2, v3)
	}
}
