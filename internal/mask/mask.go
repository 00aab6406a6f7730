// Package mask implements sensitive-string masking as displayed on
// profile pages, and the cross-service combining attack the paper
// demonstrates against inconsistently masked citizen IDs and bankcard
// numbers (§IV.B.2, insight 4: "There is no unified rule for sensitive
// information protection").
//
// Each service shows a different window of the same underlying value;
// an attacker who compromises several services merges the windows and
// can often reconstruct the full value. The proposed countermeasure —
// a unified masking standard — makes every service reveal the same
// window, so merging adds nothing.
package mask

import (
	"errors"
	"strings"

	"github.com/actfort/actfort/internal/ecosys"
)

// MaskChar is the character substituted for hidden positions.
const MaskChar = '*'

// Apply renders value under spec. Unmasked specs return the value
// verbatim. If the visible prefix and suffix overlap (value shorter
// than their sum), the whole value is shown: there is nothing left to
// hide.
func Apply(value string, spec ecosys.MaskSpec) string {
	n := len(value)
	pre, suf, whole := window(n, spec)
	if whole {
		return value
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(value[:pre])
	for i := pre; i < n-suf; i++ {
		b.WriteByte(MaskChar)
	}
	b.WriteString(value[n-suf:])
	return b.String()
}

// Revealed returns the number of visible characters Apply leaves for a
// value of length n.
func Revealed(n int, spec ecosys.MaskSpec) int {
	if pre, suf, whole := window(n, spec); !whole {
		return pre + suf
	}
	return n
}

// window returns spec's visible prefix and suffix lengths, clamped at
// 0, for a value of length n; whole reports that spec hides nothing of
// it.
func window(n int, spec ecosys.MaskSpec) (pre, suf int, whole bool) {
	pre, suf = max(spec.VisiblePrefix, 0), max(spec.VisibleSuffix, 0)
	return pre, suf, !spec.Masked || pre+suf >= n
}

// ErrConflict reports that two masked views disagree on a visible
// position — they cannot belong to the same underlying value.
var ErrConflict = errors.New("mask: views conflict on a visible position")

// ErrLengthMismatch reports views of different lengths.
var ErrLengthMismatch = errors.New("mask: views have different lengths")

// Combine merges multiple masked views of the same value (the
// combining attack). It returns the merged view, with MaskChar in
// positions no view revealed, plus the count of recovered positions.
//
// Views must have equal length; conflicting visible characters return
// ErrConflict (the attacker mixed up victims).
func Combine(views ...string) (merged string, known int, err error) {
	if len(views) == 0 {
		return "", 0, errors.New("mask: no views to combine")
	}
	n := len(views[0])
	out := make([]byte, n)
	for i := range out {
		out[i] = MaskChar
	}
	for _, v := range views {
		if len(v) != n {
			return "", 0, ErrLengthMismatch
		}
		for i := 0; i < n; i++ {
			c := v[i]
			if c == MaskChar {
				continue
			}
			if out[i] != MaskChar && out[i] != c {
				return "", 0, ErrConflict
			}
			out[i] = c
		}
	}
	for _, c := range out {
		if c != MaskChar {
			known++
		}
	}
	return string(out), known, nil
}

// FullyRecovered reports whether a merged view has no hidden positions
// left.
func FullyRecovered(merged string) bool {
	return !strings.ContainsRune(merged, MaskChar)
}

// Complete returns the recovered value and true when the combined
// views reveal every position; otherwise it returns the partial merge
// and false.
func Complete(views ...string) (string, bool) {
	merged, _, err := Combine(views...)
	if err != nil {
		return "", false
	}
	return merged, FullyRecovered(merged)
}

// UnifiedStandard is the paper's proposed countermeasure: one fixed
// mask window for each sensitive field, applied uniformly by every
// service. Combining any number of standard-masked views of the same
// value reveals exactly the standard window and nothing more.
type UnifiedStandard struct {
	// CitizenID is the mandated mask for citizen IDs.
	CitizenID ecosys.MaskSpec
	// Bankcard is the mandated mask for bankcard numbers.
	Bankcard ecosys.MaskSpec
}

// DefaultUnifiedStandard mirrors common regulatory practice: citizen
// IDs show only the first character and last one; bankcards show the
// last four digits.
func DefaultUnifiedStandard() UnifiedStandard {
	return UnifiedStandard{
		CitizenID: ecosys.MaskSpec{Masked: true, VisiblePrefix: 1, VisibleSuffix: 1},
		Bankcard:  ecosys.MaskSpec{Masked: true, VisibleSuffix: 4},
	}
}

// SpecFor returns the mandated mask for field f, and ok=false when the
// standard does not govern that field.
func (u UnifiedStandard) SpecFor(f ecosys.InfoField) (ecosys.MaskSpec, bool) {
	switch f {
	case ecosys.InfoCitizenID:
		return u.CitizenID, true
	case ecosys.InfoBankcard:
		return u.Bankcard, true
	}
	return ecosys.MaskSpec{}, false
}
