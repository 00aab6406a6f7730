// Package gsmcodec implements the GSM 03.38/03.40 encodings the
// simulated air interface carries: the 7-bit default alphabet with
// septet packing, semi-octet (swapped BCD) addresses and timestamps,
// and SMS-DELIVER TPDU marshaling. The sniffer decodes exactly these
// structures after stripping A5/1, mirroring what OsmocomBB+Wireshark
// do in the paper's Fig 5 capture.
package gsmcodec

import (
	"errors"
	"fmt"
)

// MaxSeptets is the single-SMS capacity of the 7-bit alphabet.
const MaxSeptets = 160

// ErrMessageTooLong reports text beyond single-SMS capacity;
// concatenated SMS is out of scope for OTP-sized payloads.
var ErrMessageTooLong = errors.New("gsmcodec: message exceeds 160 septets")

// ErrUnmappableRune reports a character outside the GSM default
// alphabet.
var ErrUnmappableRune = errors.New("gsmcodec: rune not in GSM 03.38 default alphabet")

// gsmToRune is the GSM 03.38 default alphabet (basic table, no
// extension escapes).
var gsmToRune = [128]rune{
	'@', '£', '$', '¥', 'è', 'é', 'ù', 'ì', 'ò', 'Ç', '\n', 'Ø', 'ø', '\r', 'Å', 'å',
	'Δ', '_', 'Φ', 'Γ', 'Λ', 'Ω', 'Π', 'Ψ', 'Σ', 'Θ', 'Ξ', '\x1b', 'Æ', 'æ', 'ß', 'É',
	' ', '!', '"', '#', '¤', '%', '&', '\'', '(', ')', '*', '+', ',', '-', '.', '/',
	'0', '1', '2', '3', '4', '5', '6', '7', '8', '9', ':', ';', '<', '=', '>', '?',
	'¡', 'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L', 'M', 'N', 'O',
	'P', 'Q', 'R', 'S', 'T', 'U', 'V', 'W', 'X', 'Y', 'Z', 'Ä', 'Ö', 'Ñ', 'Ü', '§',
	'¿', 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o',
	'p', 'q', 'r', 's', 't', 'u', 'v', 'w', 'x', 'y', 'z', 'ä', 'ö', 'ñ', 'ü', 'à',
}

var runeToGSM = func() map[rune]byte {
	m := make(map[rune]byte, 128)
	for i, r := range gsmToRune {
		m[r] = byte(i)
	}
	return m
}()

// Septets converts text to GSM alphabet code points.
func Septets(text string) ([]byte, error) {
	out := make([]byte, 0, len(text))
	for _, r := range text {
		code, ok := runeToGSM[r]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnmappableRune, r)
		}
		out = append(out, code)
	}
	if len(out) > MaxSeptets {
		return nil, ErrMessageTooLong
	}
	return out, nil
}

// Pack7Bit encodes text into packed septets, returning the packed
// bytes and the septet count needed to unpack (the TPDU UDL field).
func Pack7Bit(text string) (packed []byte, septets int, err error) {
	seps, err := Septets(text)
	if err != nil {
		return nil, 0, err
	}
	packed = make([]byte, 0, (len(seps)*7+7)/8)
	var buf uint32
	nbits := 0
	for _, sp := range seps {
		buf |= uint32(sp) << uint(nbits)
		nbits += 7
		for nbits >= 8 {
			packed = append(packed, byte(buf))
			buf >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		packed = append(packed, byte(buf))
	}
	return packed, len(seps), nil
}

// Unpack7Bit decodes septets packed bytes back to text.
func Unpack7Bit(packed []byte, septets int) (string, error) {
	if septets < 0 || septets > MaxSeptets {
		return "", fmt.Errorf("gsmcodec: invalid septet count %d", septets)
	}
	need := (septets*7 + 7) / 8
	if len(packed) < need {
		return "", fmt.Errorf("gsmcodec: packed data too short: have %d bytes, need %d", len(packed), need)
	}
	out := make([]rune, 0, septets)
	var buf uint32
	nbits := 0
	idx := 0
	for i := 0; i < septets; i++ {
		for nbits < 7 {
			buf |= uint32(packed[idx]) << uint(nbits)
			idx++
			nbits += 8
		}
		out = append(out, gsmToRune[buf&0x7F])
		buf >>= 7
		nbits -= 7
	}
	return string(out), nil
}
