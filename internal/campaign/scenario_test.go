package campaign

import (
	"strings"
	"testing"
)

// TestNormalizeRejectsOutOfRangeProbabilities is the regression test
// for the silent out-of-range bug: "reauthSkip": 5 used to pass
// validation and pin every victim to one Kc forever. Every probability
// field must land in [0, 1] or fail loudly.
func TestNormalizeRejectsOutOfRangeProbabilities(t *testing.T) {
	for _, tc := range []struct {
		name  string
		radio RadioEnv
		want  string
	}{
		{"reauthSkip>1", RadioEnv{ReauthSkip: 5}, "reauthSkip"},
		{"reauthSkip barely >1", RadioEnv{ReauthSkip: 1.0001}, "reauthSkip"},
		{"a50Fraction>1", RadioEnv{A50Fraction: 1.5}, "a50Fraction"},
		{"a53Fraction>1", RadioEnv{A53Fraction: 2}, "a53Fraction"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Scenario{Radio: tc.radio}.normalize(0)
			if err == nil {
				t.Fatalf("radio %+v accepted", tc.radio)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the field %q", err, tc.want)
			}
		})
	}
}

// TestNormalizeProbabilityBoundaries pins the values that must keep
// working: exactly 1, the zero-value default and the negative "none"
// convention.
func TestNormalizeProbabilityBoundaries(t *testing.T) {
	sc, err := Scenario{Radio: RadioEnv{ReauthSkip: 1, A50Fraction: -1, A53Fraction: 1}}.normalize(0)
	if err != nil {
		t.Fatalf("boundary values rejected: %v", err)
	}
	if sc.Radio.ReauthSkip != 1 || sc.Radio.A50Fraction != 0 || sc.Radio.A53Fraction != 1 {
		t.Errorf("normalized radio = %+v", sc.Radio)
	}
	sc, err = Scenario{}.normalize(3)
	if err != nil {
		t.Fatalf("zero scenario rejected: %v", err)
	}
	if sc.Radio.ReauthSkip != 0.6 || sc.Radio.A50Fraction != 0.2 || sc.Radio.A53Fraction != 0 {
		t.Errorf("defaults = %+v", sc.Radio)
	}
	// The combined-fraction check still applies after per-field checks.
	if _, err := (Scenario{Radio: RadioEnv{A50Fraction: 0.7, A53Fraction: 0.7}}).normalize(0); err == nil {
		t.Error("A5/0 + A5/3 > 1 accepted")
	}
}

// TestDeltaRendering is the regression test for the comparative-table
// glitches: a zero baseline used to render a bare "+0" with no percent,
// and exact non-zero ties rendered the vacuous "+0 (+0.00%)".
func TestDeltaRendering(t *testing.T) {
	for _, tc := range []struct {
		base, val int64
		want      string
	}{
		{0, 0, "±0"},       // zero-baseline tie
		{1234, 1234, "±0"}, // non-zero exact tie
		{0, 7, "+7 (new)"}, // growth from nothing: no percent possible
		{0, 1500, "+1,500 (new)"},
		{100, 50, "-50 (-50.00%)"},
		{1000, 1234, "+234 (+23.40%)"},
	} {
		if got := delta(tc.base, tc.val); got != tc.want {
			t.Errorf("delta(%d, %d) = %q, want %q", tc.base, tc.val, got, tc.want)
		}
	}
}

// TestNormalizedExportedSurface pins the validation surface the query
// service leans on: Normalized applies the same defaults and rejections
// as the internal normalize, and NormalizeSweep enforces unique names
// and non-empty lists.
func TestNormalizedExportedSurface(t *testing.T) {
	norm, err := (Scenario{}).Normalized()
	if err != nil {
		t.Fatalf("zero scenario: %v", err)
	}
	if norm.Platform != "both" || norm.Radio.OTPSessions != 3 || norm.Radio.ReauthSkip != 0.6 {
		t.Fatalf("defaults not applied: %+v", norm)
	}
	if _, err := (Scenario{Radio: RadioEnv{ReauthSkip: 5}}).Normalized(); err == nil {
		t.Fatal("reauthSkip 5 accepted")
	}
	if _, err := (Scenario{Platform: "fax"}).Normalized(); err == nil {
		t.Fatal("platform fax accepted")
	}

	if _, err := NormalizeSweep(nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := NormalizeSweep([]Scenario{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	list, err := NormalizeSweep([]Scenario{{}, {Name: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if list[0].Name != "scenario-0" || list[1].Name != "x" {
		t.Fatalf("index naming wrong: %q, %q", list[0].Name, list[1].Name)
	}
}

// TestNormalizeIdempotent pins that normalizing a normalized scenario
// is a no-op, including the zero-value convention's "none" values that
// resolve to 0 and would otherwise re-read as the paper defaults.
func TestNormalizeIdempotent(t *testing.T) {
	for _, sc := range append(BuiltinScenarios(),
		Scenario{Radio: RadioEnv{A50Fraction: -1, ReauthSkip: -1}},
		Scenario{Budget: AttackerBudget{Receivers: -1}},
	) {
		once, err := sc.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		twice, err := once.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if twice != once {
			t.Errorf("scenario %q: normalizing twice changed it:\nonce  %+v\ntwice %+v", sc.Name, once, twice)
		}
		list, err := NormalizeSweep([]Scenario{once})
		if err != nil {
			t.Fatal(err)
		}
		if list[0] != once {
			t.Errorf("scenario %q: NormalizeSweep renormalized it:\nonce  %+v\nsweep %+v", sc.Name, once, list[0])
		}
	}
}
