package gsmcodec

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Semi-octet (swapped BCD) encoding, used for addresses and service
// centre timestamps (GSM 03.40 §9.1.2.3).

// ErrBadDigits reports a non-decimal character in an address.
var ErrBadDigits = errors.New("gsmcodec: address contains non-decimal digit")

// EncodeSemiOctets packs decimal digits two per byte with nibbles
// swapped; an odd trailing digit is padded with 0xF.
func EncodeSemiOctets(digits string) ([]byte, error) {
	out := make([]byte, 0, (len(digits)+1)/2)
	for i := 0; i < len(digits); i += 2 {
		lo := digits[i]
		if lo < '0' || lo > '9' {
			return nil, fmt.Errorf("%w: %q", ErrBadDigits, lo)
		}
		b := lo - '0'
		if i+1 < len(digits) {
			hi := digits[i+1]
			if hi < '0' || hi > '9' {
				return nil, fmt.Errorf("%w: %q", ErrBadDigits, hi)
			}
			b |= (hi - '0') << 4
		} else {
			b |= 0xF0
		}
		out = append(out, b)
	}
	return out, nil
}

// DecodeSemiOctets unpacks n digits from swapped-BCD bytes.
func DecodeSemiOctets(b []byte, n int) (string, error) {
	if n < 0 || len(b)*2 < n {
		return "", fmt.Errorf("gsmcodec: semi-octet data too short for %d digits", n)
	}
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < n; i++ {
		nib := b[i/2]
		if i%2 == 1 {
			nib >>= 4
		}
		nib &= 0x0F
		if nib > 9 {
			return "", fmt.Errorf("gsmcodec: invalid BCD nibble %#x", nib)
		}
		sb.WriteByte('0' + nib)
	}
	return sb.String(), nil
}

// Type-of-address values.
const (
	// TOAInternational marks an international number (leading + was
	// stripped).
	TOAInternational = 0x91
	// TOAAlphanumeric marks a sender name like "Google" packed 7-bit.
	TOAAlphanumeric = 0xD0
)

// Deliver is an SMS-DELIVER TPDU: a mobile-terminated short message as
// the BTS broadcasts it to the victim's terminal.
type Deliver struct {
	// Originator is the sender: either an international number
	// ("+8613800001111") or an alphanumeric ID ("Google").
	Originator string
	// Timestamp is the service-centre timestamp, second precision.
	Timestamp time.Time
	// Text is the message body (GSM default alphabet).
	Text string
}

// maxAddrOctets bounds the originator address value (GSM 03.40
// §9.1.2.5): 20 semi-octet digits or 10 octets of packed alphanumeric
// name. With MaxSeptets of text it caps the size of every TPDU
// Marshal produces.
const maxAddrOctets = 10

// firstOctet is SMS-DELIVER with no more messages waiting.
const firstOctetDeliver = 0x04

// ErrNotDeliver reports a TPDU whose message type is not SMS-DELIVER.
var ErrNotDeliver = errors.New("gsmcodec: not an SMS-DELIVER TPDU")

// ErrTruncated reports a TPDU shorter than its headers claim.
var ErrTruncated = errors.New("gsmcodec: truncated TPDU")

// Marshal encodes the TPDU per GSM 03.40.
func (d Deliver) Marshal() ([]byte, error) {
	var out []byte
	out = append(out, firstOctetDeliver)

	if strings.HasPrefix(d.Originator, "+") {
		digits := d.Originator[1:]
		addr, err := EncodeSemiOctets(digits)
		if err != nil {
			return nil, fmt.Errorf("originator: %w", err)
		}
		if len(addr) > maxAddrOctets {
			return nil, fmt.Errorf("gsmcodec: originator %q exceeds 20 digits", d.Originator)
		}
		out = append(out, byte(len(digits)), TOAInternational)
		out = append(out, addr...)
	} else {
		packed, septets, err := Pack7Bit(d.Originator)
		if err != nil {
			return nil, fmt.Errorf("originator: %w", err)
		}
		if len(packed) > maxAddrOctets {
			return nil, fmt.Errorf("gsmcodec: alphanumeric originator %q too long", d.Originator)
		}
		_ = septets
		// Address-length for alphanumeric is the number of useful
		// semi-octets = packed bytes * 2.
		out = append(out, byte(len(packed)*2), TOAAlphanumeric)
		out = append(out, packed...)
	}

	out = append(out, 0x00 /* PID */, 0x00 /* DCS: 7-bit default */)

	ts, err := encodeSCTS(d.Timestamp)
	if err != nil {
		return nil, err
	}
	out = append(out, ts...)

	packed, septets, err := Pack7Bit(d.Text)
	if err != nil {
		return nil, fmt.Errorf("text: %w", err)
	}
	out = append(out, byte(septets))
	out = append(out, packed...)
	return out, nil
}

// UnmarshalDeliver parses an SMS-DELIVER TPDU.
func UnmarshalDeliver(b []byte) (Deliver, error) {
	var d Deliver
	if len(b) < 1 {
		return d, ErrTruncated
	}
	if b[0]&0x03 != 0x00 { // MTI 00 = SMS-DELIVER (MS-terminated)
		return d, ErrNotDeliver
	}
	p := 1
	if len(b) < p+2 {
		return d, ErrTruncated
	}
	addrLen := int(b[p])
	toa := b[p+1]
	p += 2
	switch toa {
	case TOAInternational:
		nbytes := (addrLen + 1) / 2
		if len(b) < p+nbytes {
			return d, ErrTruncated
		}
		digits, err := DecodeSemiOctets(b[p:p+nbytes], addrLen)
		if err != nil {
			return d, err
		}
		d.Originator = "+" + digits
		p += nbytes
	case TOAAlphanumeric:
		nbytes := (addrLen + 1) / 2
		if len(b) < p+nbytes {
			return d, ErrTruncated
		}
		septets := nbytes * 8 / 7
		name, err := Unpack7Bit(b[p:p+nbytes], septets)
		if err != nil {
			return d, err
		}
		d.Originator = strings.TrimRight(name, "\x00@")
		p += nbytes
	default:
		return d, fmt.Errorf("gsmcodec: unsupported type-of-address %#x", toa)
	}

	if len(b) < p+2+7+1 {
		return d, ErrTruncated
	}
	dcs := b[p+1]
	if dcs != 0x00 {
		return d, fmt.Errorf("gsmcodec: unsupported DCS %#x", dcs)
	}
	p += 2
	ts, err := decodeSCTS(b[p : p+7])
	if err != nil {
		return d, err
	}
	d.Timestamp = ts
	p += 7

	septets := int(b[p])
	p++
	text, err := Unpack7Bit(b[p:], septets)
	if err != nil {
		return d, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	d.Text = text
	return d, nil
}

// encodeSCTS packs a timestamp as seven swapped-BCD octets
// (yy MM dd hh mm ss zz); the zone octet is written as UTC.
func encodeSCTS(t time.Time) ([]byte, error) {
	t = t.UTC()
	fields := []int{t.Year() % 100, int(t.Month()), t.Day(), t.Hour(), t.Minute(), t.Second(), 0}
	out := make([]byte, 0, 7)
	for _, f := range fields {
		enc, err := EncodeSemiOctets(fmt.Sprintf("%02d", f))
		if err != nil {
			return nil, err
		}
		out = append(out, enc...)
	}
	return out, nil
}

func decodeSCTS(b []byte) (time.Time, error) {
	if len(b) != 7 {
		return time.Time{}, ErrTruncated
	}
	vals := make([]int, 7)
	for i, oct := range b {
		s, err := DecodeSemiOctets([]byte{oct}, 2)
		if err != nil {
			return time.Time{}, err
		}
		vals[i] = int(s[0]-'0')*10 + int(s[1]-'0')
	}
	return time.Date(2000+vals[0], time.Month(vals[1]), vals[2], vals[3], vals[4], vals[5], 0, time.UTC), nil
}
