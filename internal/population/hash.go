package population

// Domain-separation tags for the deterministic draw streams. Each
// subscriber attribute pulls from its own stream, so adding a new
// attribute never perturbs existing ones (the stability the
// determinism property test relies on).
const (
	tagEnroll uint64 = 0xE14011 + iota
	tagLeak
	tagLeakTier
	tagLeakDeep
	tagCoverage
	tagCipher
	tagReauth
	tagRAND
)

// splitmix advances a SplitMix64 state — the same scramble
// internal/identity uses to decorrelate persona streams.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix folds the values into one well-scrambled 64-bit draw. The
// campaign engine keys its per-victim radio randomness on the same
// streams.
func Mix(vs ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		h = splitmix(h ^ v)
	}
	return h
}

// Unit maps a draw to [0, 1).
func Unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Tags reused by the campaign engine so its draws live in the same
// domain-separated space as the population's.
const (
	TagCoverage = tagCoverage
	TagCipher   = tagCipher
	TagReauth   = tagReauth
	TagRAND     = tagRAND
)
