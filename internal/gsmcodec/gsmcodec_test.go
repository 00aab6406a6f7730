package gsmcodec

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPack7BitKnownAnswer(t *testing.T) {
	// Classic GSM example: "hellohello" packs to E8329BFD4697D9EC37.
	packed, septets, err := Pack7Bit("hellohello")
	if err != nil {
		t.Fatal(err)
	}
	if septets != 10 {
		t.Fatalf("septets = %d want 10", septets)
	}
	if got := strings.ToUpper(hex.EncodeToString(packed)); got != "E8329BFD4697D9EC37" {
		t.Fatalf("packed = %s want E8329BFD4697D9EC37", got)
	}
}

func TestUnpack7BitKnownAnswer(t *testing.T) {
	raw, _ := hex.DecodeString("E8329BFD4697D9EC37")
	got, err := Unpack7Bit(raw, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != "hellohello" {
		t.Fatalf("unpacked = %q", got)
	}
}

func TestPackUnpackRoundTripASCII(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		length := int(n) % 161
		runes := make([]rune, length)
		for i := range runes {
			// Printable ASCII subset fully inside the GSM alphabet.
			choices := "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 .:-+()/?!,"
			runes[i] = rune(choices[r.Intn(len(choices))])
		}
		text := string(runes)
		packed, septets, err := Pack7Bit(text)
		if err != nil {
			return false
		}
		got, err := Unpack7Bit(packed, septets)
		return err == nil && got == text
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPack7BitRejectsLongAndUnmappable(t *testing.T) {
	if _, _, err := Pack7Bit(strings.Repeat("a", 161)); !errors.Is(err, ErrMessageTooLong) {
		t.Errorf("long message err = %v", err)
	}
	if _, _, err := Pack7Bit("code 中 123"); !errors.Is(err, ErrUnmappableRune) {
		t.Errorf("CJK err = %v", err)
	}
	if _, _, err := Pack7Bit("Your code is 1234 @ großes ä"); err != nil {
		t.Errorf("GSM-alphabet text rejected: %v", err)
	}
}

func TestUnpack7BitErrors(t *testing.T) {
	if _, err := Unpack7Bit([]byte{0x01}, 5); err == nil {
		t.Error("short data accepted")
	}
	if _, err := Unpack7Bit(nil, -1); err == nil {
		t.Error("negative septets accepted")
	}
	if _, err := Unpack7Bit(make([]byte, 200), 200); err == nil {
		t.Error("septets > 160 accepted")
	}
}

func TestSemiOctetsRoundTrip(t *testing.T) {
	cases := []string{"", "1", "12", "8613800001111", "123456789012345"}
	for _, digits := range cases {
		enc, err := EncodeSemiOctets(digits)
		if err != nil {
			t.Fatalf("encode %q: %v", digits, err)
		}
		dec, err := DecodeSemiOctets(enc, len(digits))
		if err != nil {
			t.Fatalf("decode %q: %v", digits, err)
		}
		if dec != digits {
			t.Errorf("round trip %q -> %q", digits, dec)
		}
	}
}

func TestSemiOctetsKnownAnswer(t *testing.T) {
	enc, err := EncodeSemiOctets("12345")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, []byte{0x21, 0x43, 0xF5}) {
		t.Fatalf("EncodeSemiOctets(12345) = %x want 2143f5", enc)
	}
}

func TestSemiOctetsErrors(t *testing.T) {
	if _, err := EncodeSemiOctets("12a4"); !errors.Is(err, ErrBadDigits) {
		t.Errorf("bad digit err = %v", err)
	}
	if _, err := DecodeSemiOctets([]byte{0x21}, 5); err == nil {
		t.Error("short decode accepted")
	}
	if _, err := DecodeSemiOctets([]byte{0xAB}, 2); err == nil {
		t.Error("invalid BCD nibble accepted")
	}
}

func TestDeliverRoundTripInternational(t *testing.T) {
	d := Deliver{
		Originator: "+8613800001111",
		Timestamp:  time.Date(2021, 4, 19, 8, 30, 15, 0, time.UTC),
		Text:       "Your Google verification code is 845512",
	}
	raw, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalDeliver(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Originator != d.Originator {
		t.Errorf("originator %q want %q", got.Originator, d.Originator)
	}
	if !got.Timestamp.Equal(d.Timestamp) {
		t.Errorf("timestamp %v want %v", got.Timestamp, d.Timestamp)
	}
	if got.Text != d.Text {
		t.Errorf("text %q want %q", got.Text, d.Text)
	}
}

func TestDeliverRoundTripAlphanumeric(t *testing.T) {
	d := Deliver{
		Originator: "Google",
		Timestamp:  time.Date(2021, 7, 19, 23, 59, 59, 0, time.UTC),
		Text:       "G-942117 is your verification code.",
	}
	raw, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalDeliver(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Originator != "Google" {
		t.Errorf("originator %q want Google", got.Originator)
	}
	if got.Text != d.Text {
		t.Errorf("text %q want %q", got.Text, d.Text)
	}
}

func TestDeliverRoundTripProperty(t *testing.T) {
	f := func(seed int64, codeVal uint32) bool {
		r := rand.New(rand.NewSource(seed))
		code := int(codeVal % 1000000)
		d := Deliver{
			Originator: "+86138" + strings.Repeat("0", 2) + "123456"[:6],
			Timestamp:  time.Date(2000+r.Intn(99), time.Month(1+r.Intn(12)), 1+r.Intn(28), r.Intn(24), r.Intn(60), r.Intn(60), 0, time.UTC),
			Text:       "Code: " + formatCode(code),
		}
		raw, err := d.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalDeliver(raw)
		return err == nil && got.Text == d.Text && got.Originator == d.Originator && got.Timestamp.Equal(d.Timestamp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func formatCode(c int) string {
	const digits = "0123456789"
	out := make([]byte, 6)
	for i := 5; i >= 0; i-- {
		out[i] = digits[c%10]
		c /= 10
	}
	return string(out)
}

func TestUnmarshalDeliverErrors(t *testing.T) {
	if _, err := UnmarshalDeliver(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("nil err = %v", err)
	}
	if _, err := UnmarshalDeliver([]byte{0x01}); !errors.Is(err, ErrNotDeliver) {
		t.Errorf("MTI err = %v", err)
	}
	d := Deliver{Originator: "+86138", Timestamp: time.Now(), Text: "hi"}
	raw, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(raw)-1; cut++ {
		if _, err := UnmarshalDeliver(raw[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestMarshalRejectsBadOriginator(t *testing.T) {
	d := Deliver{Originator: "+86ABC", Timestamp: time.Now(), Text: "x"}
	if _, err := d.Marshal(); err == nil {
		t.Error("non-digit international originator accepted")
	}
	d = Deliver{Originator: "AVeryLongSenderName", Timestamp: time.Now(), Text: "x"}
	if _, err := d.Marshal(); err == nil {
		t.Error("overlong alphanumeric originator accepted")
	}
	d = Deliver{Originator: "+" + strings.Repeat("1", 20), Timestamp: time.Now(), Text: "x"}
	if _, err := d.Marshal(); err != nil {
		t.Errorf("20-digit international originator rejected: %v", err)
	}
	d.Originator += "1"
	if _, err := d.Marshal(); err == nil {
		t.Error("21-digit international originator accepted")
	}
}

func BenchmarkPack7Bit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, _ = Pack7Bit("Your verification code is 845512. Do not share it.")
	}
}

func BenchmarkDeliverMarshal(b *testing.B) {
	d := Deliver{
		Originator: "+8613800001111",
		Timestamp:  time.Date(2021, 4, 19, 8, 30, 15, 0, time.UTC),
		Text:       "Your verification code is 845512",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}
