package population

import (
	"math"
	"testing"
)

// TestShardEnrollmentMatchesFloatDraw holds the hoisted-prefix,
// integer-threshold enrollment draw to its definition: service j is
// enrolled exactly when Unit(Mix(seed, tagEnroll, idx, j)) < rate_j.
// EnrollmentScale 3 clamps the leading services' rates at 1.
func TestShardEnrollmentMatchesFloatDraw(t *testing.T) {
	for _, seed := range []int64{1, 42, -7} {
		for _, scale := range []float64{0.25, 1, 3} {
			p := testPop(t, Config{Seed: seed, Size: 3000, ShardSize: 1024, EnrollmentScale: scale})
			rates := p.adoption
			clamped := 0
			for _, r := range rates {
				if r == 1 {
					clamped++
				}
			}
			if scale == 3 && clamped == 0 {
				t.Fatalf("scale 3 clamped no rate at 1")
			}
			for si := 0; si < p.NumShards(); si++ {
				sh := p.Shard(si)
				for _, sub := range sh.Subscribers {
					for j, rate := range rates {
						want := Unit(Mix(uint64(seed), tagEnroll, uint64(sub.Index), uint64(j))) < rate
						if got := sub.Enrolled.Has(j); got != want {
							t.Fatalf("seed %d scale %v subscriber %d service %d (rate %v): enrolled %v, float draw says %v",
								seed, scale, sub.Index, j, rate, got, want)
						}
					}
				}
				sh.Release()
			}
		}
	}
}

// TestEnrollThresholdBoundary checks the integer compare at its edges:
// for each rate, a draw whose top 53 bits are thresh-1 must enroll and
// one at thresh must not, exactly as the float compare decides.
func TestEnrollThresholdBoundary(t *testing.T) {
	rates := []float64{1, adoptionFloor, 0.3, 0.5, 1.0 / 3, math.Nextafter(1, 0), 0x1p-53, 0}
	if r := 0.3 * (1 << 53); r == math.Trunc(r) {
		t.Fatalf("0.3·2⁵³ = %v is an integer; the case needs a non-integer product", r)
	}
	thresh := enrollThresholds(rates)
	for j, rate := range rates {
		tj := thresh[j]
		if tj > 1<<53 {
			t.Fatalf("rate %v: thresh %d exceeds 2⁵³", rate, tj)
		}
		for _, top := range []uint64{tj - 1, tj} {
			if top >= 1<<53 {
				continue // no 53-bit draw there (tj-1 wraps at rate 0; tj = 2⁵³ at rate 1)
			}
			// Low 11 bits set: they are discarded by both compares.
			h := top<<11 | 0x7FF
			if got, want := h>>11 < tj, Unit(h) < rate; got != want {
				t.Errorf("rate %v thresh %d draw top %d: integer %v, float %v", rate, tj, top, got, want)
			}
		}
	}
	if thresh[0] != 1<<53 {
		t.Errorf("rate 1: thresh %d, want 2⁵³ (every draw enrolls)", thresh[0])
	}
	if thresh[len(thresh)-1] != 0 {
		t.Errorf("rate 0: thresh %d, want 0 (no draw enrolls)", thresh[len(thresh)-1])
	}
}
