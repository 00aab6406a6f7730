package population

import (
	"hash/fnv"
	"testing"

	"github.com/actfort/actfort/internal/identity"
	"github.com/actfort/actfort/internal/socialdb"
)

// Fingerprint hashes every subscriber's complete materialized state
// (identity, persona, enrollment, leak record) into one FNV-64 digest,
// prefixed with FingerprintVersion. Two populations with equal
// fingerprints are byte-identical; the determinism property test pins
// same-seed reproducibility with it. The digest covers the fully
// materialized form — the compact Shard is a compression of the same
// bytes — and is independent of shard geometry (subscribers hash in
// index order).
func (p *Population) Fingerprint() uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte{FingerprintVersion})
	buf := make([]byte, 0, 512)
	enrolled := make(ServiceSet, p.words)
	for idx := 0; idx < p.cfg.Size; idx++ {
		persona := p.gen.Ref(idx).Persona()
		clear(enrolled)
		p.fillEnrollment(enrolled, idx)
		var rec *socialdb.Record
		if p.leaked(idx) {
			r := p.leakRecord(idx, persona)
			rec = &r
		}
		buf = appendSubscriber(buf[:0], idx, &persona, enrolled, rec)
		_, _ = h.Write(buf)
	}
	return h.Sum64()
}

// appendSubscriber canonically serializes one fully materialized
// subscriber; rec is nil for an unleaked one.
func appendSubscriber(buf []byte, idx int, pe *identity.Persona, enrolled ServiceSet, rec *socialdb.Record) []byte {
	appendStr := func(s string) {
		buf = append(buf, byte(len(s)>>8), byte(len(s)))
		buf = append(buf, s...)
	}
	buf = append(buf, byte(idx>>24), byte(idx>>16), byte(idx>>8), byte(idx))
	appendStr(IMSIFor(idx))
	appendStr(pe.RealName)
	appendStr(pe.CitizenID)
	appendStr(pe.Phone)
	appendStr(pe.Email)
	appendStr(pe.Address)
	appendStr(pe.Bankcard)
	appendStr(pe.UserID)
	appendStr(pe.StudentID)
	appendStr(pe.DeviceType)
	for _, a := range pe.Acquaintances {
		appendStr(a)
	}
	for _, ph := range pe.Photos {
		appendStr(ph)
	}
	for _, w := range enrolled {
		for s := 56; s >= 0; s -= 8 {
			buf = append(buf, byte(w>>uint(s)))
		}
	}
	if rec != nil {
		buf = append(buf, 1)
		appendStr(rec.Phone)
		appendStr(rec.RealName)
		appendStr(rec.Address)
		appendStr(rec.CitizenID)
		appendStr(rec.Source)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// leakRecord builds the attacker-visible dump entry. Two tiers mirror
// §V.A.1's sources: full breach rows (name and address, sometimes the
// citizen ID) and phishing-WiFi harvests (phone number only).
func (p *Population) leakRecord(idx int, persona identity.Persona) socialdb.Record {
	seed := uint64(p.cfg.Seed)
	rec := socialdb.Record{Phone: persona.Phone}
	if p.leakClass(idx) == LeakBreach {
		rec.Source = SourceBreach
		rec.RealName = persona.RealName
		rec.Address = persona.Address
		if Unit(Mix(seed, tagLeakDeep, uint64(idx))) < 0.40 {
			rec.CitizenID = persona.CitizenID
		}
	} else {
		rec.Source = SourceWiFi
	}
	return rec
}

// IMSIFor maps a subscriber index to its 15-digit IMSI (MCC/MNC 46000,
// the PLMN the paper's field setup observed).
func IMSIFor(idx int) string {
	return string(AppendIMSI(make([]byte, 0, 15), idx))
}

// TestPinnedFingerprints holds FingerprintVersion 2 digests constant
// across code changes: these values were captured from the eager
// (pre-lazy-persona) generator, so any drift means the materialized
// bytes moved and FingerprintVersion must bump.
func TestPinnedFingerprints(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"base", Config{Seed: 42, Size: 3000, ShardSize: 256}, 0x49d49243e886542f},
		{"alt-seed", Config{Seed: 7, Size: 2000, ShardSize: 512}, 0xd3e191b70733f522},
		{"no-leaks-scaled", Config{Seed: 11, Size: 1000, ShardSize: 1000, LeakFraction: -1, EnrollmentScale: 1.5}, 0x3ba20b2a0e86f5ce},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.Fingerprint(); got != c.want {
				t.Errorf("fingerprint %#x, want pinned %#x (bump FingerprintVersion if the layout changed on purpose)", got, c.want)
			}
		})
	}
}

// TestFingerprintShardGeometry pins that the digest is independent of
// shard geometry: it hashes subscribers in index order, so the same
// population sliced into different shard sizes fingerprints the same.
func TestFingerprintShardGeometry(t *testing.T) {
	var want uint64
	for i, shardSize := range []int{64, 256, 1000, 4096} {
		p, err := New(Config{Seed: 42, Size: 1000, ShardSize: shardSize})
		if err != nil {
			t.Fatal(err)
		}
		got := p.Fingerprint()
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("shardSize=%d: fingerprint %#x, want %#x", shardSize, got, want)
		}
	}
}
