package sniffer

import (
	"strings"
	"testing"
)

// MustFilter is ParseFilter panicking on error, for constant filters.
func MustFilter(src string) Filter {
	f, err := ParseFilter(src)
	if err != nil {
		panic(err)
	}
	return f
}

func capFor(src, text string, arfcn int, enc bool) Capture {
	return Capture{Originator: src, Text: text, ARFCN: arfcn, Encrypted: enc}
}

func TestFilterBasics(t *testing.T) {
	cases := []struct {
		expr string
		c    Capture
		want bool
	}{
		{`sms.src == "Google"`, capFor("Google", "", 0, false), true},
		{`sms.src == "Google"`, capFor("Facebook", "", 0, false), false},
		{`sms.src != "Google"`, capFor("Facebook", "", 0, false), true},
		{`sms.text contains "code"`, capFor("", "your code is 1", 0, false), true},
		{`sms.text contains "code"`, capFor("", "hello", 0, false), false},
		{`sms.text matches "G-[0-9]{6}"`, capFor("", "G-845512 is your code", 0, false), true},
		{`sms.text matches "G-[0-9]{6}"`, capFor("", "G-12 is not", 0, false), false},
		{`arfcn == 512`, capFor("", "", 512, false), true},
		{`arfcn != 512`, capFor("", "", 513, false), true},
		{`sms.encrypted == true`, capFor("", "", 0, true), true},
		{`sms.encrypted != true`, capFor("", "", 0, false), true},
	}
	for _, tc := range cases {
		f, err := ParseFilter(tc.expr)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.expr, err)
		}
		if got := f.Match(tc.c); got != tc.want {
			t.Errorf("%q.Match(%+v) = %v want %v", tc.expr, tc.c, got, tc.want)
		}
	}
}

func TestFilterBooleanComposition(t *testing.T) {
	f := MustFilter(`(sms.src == "Google" || sms.src == "Facebook") && sms.text contains "code" && !(arfcn == 999)`)
	if !f.Match(capFor("Google", "your code", 512, true)) {
		t.Error("expected match")
	}
	if f.Match(capFor("Google", "your code", 999, true)) {
		t.Error("negated arfcn matched")
	}
	if f.Match(capFor("Twitter", "your code", 512, true)) {
		t.Error("unlisted source matched")
	}
	if f.Match(capFor("Google", "hello", 512, true)) {
		t.Error("missing keyword matched")
	}
}

func TestFilterPrecedenceOrBindsLooser(t *testing.T) {
	// a || b && c parses as a || (b && c).
	f := MustFilter(`sms.src == "A" || sms.src == "B" && sms.text contains "x"`)
	if !f.Match(capFor("A", "none", 0, false)) {
		t.Error("left OR arm should match without the AND condition")
	}
	if f.Match(capFor("B", "none", 0, false)) {
		t.Error("right arm requires the AND condition")
	}
	if !f.Match(capFor("B", "has x", 0, false)) {
		t.Error("right arm with both conditions should match")
	}
}

func TestFilterStringRoundTrip(t *testing.T) {
	exprs := []string{
		`sms.src == "Google"`,
		`sms.text contains "code" && arfcn == 512`,
		`!(sms.encrypted == true) || sms.text matches "[0-9]{6}"`,
	}
	for _, e := range exprs {
		f := MustFilter(e)
		again, err := ParseFilter(f.String())
		if err != nil {
			t.Fatalf("re-parse of %q -> %q failed: %v", e, f.String(), err)
		}
		// Spot check equivalence on a few captures.
		probes := []Capture{
			capFor("Google", "code 123456", 512, true),
			capFor("Other", "hello", 999, false),
			capFor("Google", "123456", 512, false),
		}
		for _, c := range probes {
			if f.Match(c) != again.Match(c) {
				t.Errorf("round-trip of %q changed semantics on %+v", e, c)
			}
		}
	}
}

func TestFilterParseErrors(t *testing.T) {
	bad := []string{
		``,
		`sms.src`,
		`sms.src ==`,
		`sms.src == Google`,      // unquoted
		`sms.src = "G"`,          // single =
		`arfcn == "x"`,           // wrong value type
		`arfcn contains 5`,       // wrong op
		`sms.encrypted == "yes"`, // wrong value type
		`sms.encrypted contains true`,
		`unknownfield == "x"`,
		`sms.text matches "["`, // bad regexp
		`(sms.src == "G"`,      // unbalanced paren
		`sms.src == "G" &&`,
		`sms.src == "G" extra`,
		`sms.src == "unterminated`,
		`sms.src & "G"`,
		`sms.src | "G"`,
		`sms.text == "a" ~ "b"`,
	}
	for _, e := range bad {
		if _, err := ParseFilter(e); err == nil {
			t.Errorf("ParseFilter(%q) succeeded, want error", e)
		}
	}
}

func TestMustFilterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFilter on bad input did not panic")
		}
	}()
	MustFilter(`bogus`)
}

func TestFilterStringsReadable(t *testing.T) {
	f := MustFilter(`sms.src == "Google" && (arfcn == 512 || sms.encrypted == false)`)
	s := f.String()
	for _, want := range []string{"sms.src", "Google", "512", "encrypted"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func BenchmarkFilterMatch(b *testing.B) {
	f := MustFilter(`(sms.src == "Google" || sms.src == "Facebook") && sms.text matches "[0-9]{6}"`)
	c := capFor("Google", "G-845512 is your verification code", 512, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !f.Match(c) {
			b.Fatal("no match")
		}
	}
}
