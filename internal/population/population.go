// Package population generates the synthetic subscriber base the
// population-scale campaign engine attacks: millions of personas, each
// with a SIM identity, a service-enrollment profile drawn from the
// calibrated ecosystem catalog, and (for a configurable fraction) a
// presence in the attacker's leaked-records databases.
//
// The generator is deterministic, seeded and sharded: subscriber i is
// a pure function of (seed, i), shards cover contiguous index ranges
// and can be materialized independently and in parallel, and nothing
// is retained between Shard calls — a campaign streams shards through
// a worker pool without ever holding the whole population in memory.
//
// A Shard is COMPACT: a subscriber is its index, an identity.Ref
// (seed + index, 16 bytes), an arena-carved enrollment bitset and two
// leak flags — no persona strings, no per-subscriber leak records, no
// shard-local leak store. Attribute bytes (IMSI, phone, name, address)
// derive on demand from the Ref's draw stream exactly when a consumer
// touches them. Dossier says what a leaked subscriber's record gives
// the attacker, and AppendLeakRecords rebuilds the attacker-visible
// dump rows from the same draws.
// Shards recycle through a pool (Release), so steady-state streaming
// allocates nothing per subscriber.
//
// That purity is the invariant the campaign's golden Summaries rest
// on: regenerating a shard yields bit-identical subscribers (the
// package tests' Fingerprint digest pins it, versioned by
// FingerprintVersion, computed over the fully materialized form), so
// two campaign runs over one seed differ only in engine mechanics,
// never in the world being attacked.
package population

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/identity"
	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/socialdb"
)

// DefaultShardSize batches subscribers per shard: big enough to
// amortize per-shard setup (a sniffer rig, a partial-metrics frame),
// small enough that a worker's resident set stays in cache.
const DefaultShardSize = 4096

// Config parameterizes a Population.
type Config struct {
	// Seed drives every draw; same seed, same population, bit for bit.
	Seed int64
	// Size is the subscriber count.
	Size int
	// ShardSize bounds subscribers per shard (0 = DefaultShardSize).
	ShardSize int
	// Catalog is the service ecosystem enrollments are drawn from
	// (nil = the calibrated 201-service dataset.Default catalog).
	Catalog *ecosys.Catalog
	// LeakFraction is the share of subscribers present in the leaked
	// personal-information databases of §V.A.1 (0 = DefaultLeakFraction;
	// negative = nobody leaked).
	LeakFraction float64
	// EnrollmentScale multiplies every service-adoption probability
	// (0 = 1.0). Raising it densifies the account graph per victim.
	EnrollmentScale float64
}

// DefaultLeakFraction matches the paper's observation that merged
// breach dumps cover a large minority of active phone numbers.
const DefaultLeakFraction = 0.35

// LeakClass buckets a subscriber's presence in the attacker's leak
// databases — the compact stand-in for Record.Source string
// comparisons on the campaign hot path.
type LeakClass uint8

const (
	// LeakNone marks a subscriber absent from every leak database.
	LeakNone LeakClass = iota
	// LeakBreach marks a full breach row (name and address, sometimes
	// the citizen ID) — Source "2016-breach".
	LeakBreach
	// LeakWiFi marks a phishing-WiFi harvest (phone number only) —
	// Source "phishing-wifi".
	LeakWiFi
)

// Leak record source labels (§V.A.1's two source tiers). Shared
// constants so every record of a tier aliases one canonical string.
const (
	SourceBreach = "2016-breach"
	SourceWiFi   = "phishing-wifi"
)

// Subscriber is one member of the population: 56 bytes. Attribute
// bytes derive on demand — the IMSI through AppendIMSI, persona fields
// through Ref's accessors, leak records through AppendLeakRecords.
type Subscriber struct {
	// Index is the global subscriber index (also the persona index).
	Index int
	// Ref is the lazy persona handle (seed + index).
	Ref identity.Ref
	// Enrolled is the set of catalog services (by catalog order index)
	// the subscriber holds accounts on. The bitset is carved from the
	// shard's arena: valid until the shard is Released.
	Enrolled ServiceSet
	// Leaked reports presence in the attacker's leak databases; Class
	// refines it to the source tier.
	Leaked bool
	Class  LeakClass
}

// ServiceSet is a bitset over catalog service indices.
type ServiceSet []uint64

// Shard is one contiguous slice of the population.
type Shard struct {
	Index int
	// Start and End bound the subscriber index range [Start, End).
	Start, End int
	// Subscribers holds the shard's members.
	Subscribers []Subscriber
	// LeakCount is the number of leaked subscribers in the shard (phones
	// are unique per index, so it equals the record count the shard
	// contributes to a merged leak database).
	LeakCount int

	// enroll is the arena every subscriber's Enrolled bitset is carved
	// from; one block backs the whole shard and is recycled on Release.
	enroll slab.Slab[uint64]
	owner  *Population
}

// MemBytes estimates the shard's resident bytes: the subscriber slice
// plus the enrollment arena — the whole resident cost of streaming the
// shard.
func (sh *Shard) MemBytes() int {
	return cap(sh.Subscribers)*int(unsafe.Sizeof(Subscriber{})) + sh.enroll.Len()*8
}

// Release returns the shard to its population's pool for reuse by a
// later Shard call. The shard, its Subscribers and every Enrolled
// bitset are invalid afterwards. Releasing is optional — unreleased
// shards are garbage collected — but steady-state streaming (the
// campaign worker pool) recycles every shard so generation allocates
// nothing per subscriber.
func (sh *Shard) Release() {
	if sh.owner != nil {
		sh.owner.pool.Put(sh)
	}
}

// Population is a deterministic subscriber generator. Safe for
// concurrent use: all generator state is immutable after New (the
// shard pool is internally synchronized).
type Population struct {
	cfg      Config
	catalog  *ecosys.Catalog
	services []string
	adoption []float64
	thresh   []uint64 // adoption as integer draw thresholds (enrollThresholds)
	gen      *identity.Generator
	words    int // enrollment bitset words per subscriber
	pool     sync.Pool
}

// New validates the config and precomputes the per-service adoption
// rates. No subscribers are materialized yet.
func New(cfg Config) (*Population, error) {
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("population: size %d <= 0", cfg.Size)
	}
	if cfg.ShardSize == 0 {
		cfg.ShardSize = DefaultShardSize
	}
	if cfg.ShardSize < 0 {
		return nil, fmt.Errorf("population: shard size %d < 0", cfg.ShardSize)
	}
	if cfg.Catalog == nil {
		cat, err := dataset.Default()
		if err != nil {
			return nil, err
		}
		cfg.Catalog = cat
	}
	if cfg.LeakFraction == 0 {
		cfg.LeakFraction = DefaultLeakFraction
	}
	if cfg.EnrollmentScale == 0 {
		cfg.EnrollmentScale = 1.0
	}
	p := &Population{
		cfg:      cfg,
		catalog:  cfg.Catalog,
		gen:      identity.NewGenerator(cfg.Seed),
		adoption: adoptionRates(cfg.Catalog, cfg.EnrollmentScale),
	}
	p.thresh = enrollThresholds(p.adoption)
	p.words = (len(p.adoption) + 63) / 64
	p.pool.New = func() any { return &Shard{owner: p} }
	for _, svc := range cfg.Catalog.Services() {
		p.services = append(p.services, svc.Name)
	}
	return p, nil
}

// Size returns the subscriber count.
func (p *Population) Size() int { return p.cfg.Size }

// Seed returns the generator seed (campaigns reuse it to key the
// telecom substrate so synthesized Kc values are reproducible).
func (p *Population) Seed() int64 { return p.cfg.Seed }

// ShardSize returns the resolved per-shard subscriber count.
func (p *Population) ShardSize() int { return p.cfg.ShardSize }

// LeakFraction returns the resolved leak fraction (negative = nobody
// leaked); campaign checkpoints pin it in the run manifest.
func (p *Population) LeakFraction() float64 { return p.cfg.LeakFraction }

// EnrollmentScale returns the resolved adoption multiplier.
func (p *Population) EnrollmentScale() float64 { return p.cfg.EnrollmentScale }

// Catalog returns the ecosystem catalog enrollments refer to.
func (p *Population) Catalog() *ecosys.Catalog { return p.catalog }

// Services returns catalog service names in enrollment-index order.
// Callers must not mutate the returned slice.
func (p *Population) Services() []string { return p.services }

// NumShards returns how many shards cover the population.
func (p *Population) NumShards() int {
	return (p.cfg.Size + p.cfg.ShardSize - 1) / p.cfg.ShardSize
}

// ShardBounds returns the index range [start, end) of shard i.
func (p *Population) ShardBounds(i int) (start, end int) {
	start = i * p.cfg.ShardSize
	end = start + p.cfg.ShardSize
	if end > p.cfg.Size {
		end = p.cfg.Size
	}
	return start, end
}

// Shard materializes shard i. Shards are independent: any subset may
// be generated, in any order, from any number of goroutines. The
// returned shard may reuse the storage of a previously Released one.
func (p *Population) Shard(i int) *Shard {
	if i < 0 || i >= p.NumShards() {
		panic(fmt.Sprintf("population: shard %d out of range [0, %d)", i, p.NumShards()))
	}
	start, end := p.ShardBounds(i)
	n := end - start
	sh := p.pool.Get().(*Shard)
	sh.Index, sh.Start, sh.End = i, start, end
	sh.LeakCount = 0
	sh.enroll.Reset()
	if cap(sh.Subscribers) < n {
		sh.Subscribers = make([]Subscriber, n)
	} else {
		sh.Subscribers = sh.Subscribers[:n]
	}
	for idx := start; idx < end; idx++ {
		sub := &sh.Subscribers[idx-start]
		*sub = Subscriber{
			Index: idx,
			Ref:   p.gen.Ref(idx),
		}
		sub.Enrolled = p.enrollmentInto(&sh.enroll, idx)
		if p.leaked(idx) {
			sub.Leaked = true
			sub.Class = p.leakClass(idx)
			sh.LeakCount++
		}
	}
	return sh
}

// leaked draws whether subscriber idx is in the attacker's leak
// databases.
func (p *Population) leaked(idx int) bool {
	return Unit(Mix(uint64(p.cfg.Seed), tagLeak, uint64(idx))) < p.cfg.LeakFraction
}

// leakClass draws the source tier of a leaked subscriber.
func (p *Population) leakClass(idx int) LeakClass {
	if Unit(Mix(uint64(p.cfg.Seed), tagLeakTier, uint64(idx))) < 0.75 {
		return LeakBreach
	}
	return LeakWiFi
}

// AppendIMSI appends the 15-digit IMSI of subscriber idx — the
// allocation-free form campaigns carve per-shard IMSI bytes with.
func AppendIMSI(b []byte, idx int) []byte {
	b = append(b, "46000"...)
	var tmp [20]byte
	d := tmp[:0]
	for v := idx; ; {
		d = append(d, byte('0'+v%10))
		v /= 10
		if v == 0 {
			break
		}
	}
	for n := len(d); n < 10; n++ {
		b = append(b, '0')
	}
	for i := len(d) - 1; i >= 0; i-- {
		b = append(b, d[i])
	}
	return b
}

// enrollmentInto draws the service set into a carve of the shard's
// arena.
func (p *Population) enrollmentInto(arena *slab.Slab[uint64], idx int) ServiceSet {
	set := ServiceSet(arena.Grab(p.words))
	clear(set)
	p.fillEnrollment(set, idx)
	return set
}

// fillEnrollment draws the subscriber's service set: one independent,
// index-keyed draw per service, so the profile is order-independent
// and shards need no coordination.
//
// Service j enrolls when Unit(Mix(seed, tagEnroll, idx, j)) < rate_j.
// Mix folds left, so that draw is splitmix(prefix ^ j) over the
// subscriber's prefix Mix(seed, tagEnroll, idx), and the prefix is
// computed once: each service costs one splitmix. The compare runs on
// integers against thresh (see enrollThresholds), which is exact.
func (p *Population) fillEnrollment(set ServiceSet, idx int) {
	prefix := Mix(uint64(p.cfg.Seed), tagEnroll, uint64(idx))
	for j, t := range p.thresh {
		if splitmix(prefix^uint64(j))>>11 < t {
			set[j>>6] |= 1 << (uint(j) & 63)
		}
	}
}

// enrollThresholds maps each adoption rate to the integer threshold
// thresh = ceil(rate·2⁵³), so that for every draw h
//
//	h>>11 < thresh  ⇔  Unit(h) < rate.
//
// Unit(h) is (h>>11)/2⁵³ with h>>11 < 2⁵³, so both sides of
// Unit(h) < rate scale by 2⁵³ without rounding; and an integer x is
// below the real rate·2⁵³ exactly when it is below its ceiling. Rates
// at or above 1 map to 2⁵³ (every draw enrolls), and rates at or below
// 0 (or NaN) map to 0 (none does).
func enrollThresholds(rates []float64) []uint64 {
	out := make([]uint64, len(rates))
	for j, rate := range rates {
		switch {
		case rate >= 1:
			out[j] = 1 << 53
		case rate > 0:
			out[j] = uint64(math.Ceil(rate * (1 << 53)))
		}
	}
	return out
}

// Dossier is what a leaked subscriber's record gives the attacker: a
// bitmask of DossierFound and the credential fields the record carries.
// It is a pure function of the subscriber's leak draws, so the
// attacker's join of a victim's phone against the leak databases needs
// no database: phones are unique per index, and the record found for
// subscriber idx is the one AppendLeakRecords rebuilds for idx.
type Dossier uint8

// Dossier bits.
const (
	// DossierFound marks a subscriber present in a leak database.
	DossierFound Dossier = 1 << iota
	// DossierRealName marks a record carrying the real name.
	DossierRealName
	// DossierAddress marks a record carrying the street address.
	DossierAddress
	// DossierCitizenID marks a record carrying the citizen ID.
	DossierCitizenID
)

// Dossier returns subscriber idx's dossier: zero when the subscriber is
// in no leak database, DossierFound alone for a phishing-WiFi harvest
// (phone number only), and for a breach row the real name and address
// plus, for 40% of them, the citizen ID.
func (p *Population) Dossier(idx int) Dossier {
	if !p.leaked(idx) {
		return 0
	}
	if p.leakClass(idx) != LeakBreach {
		return DossierFound
	}
	d := DossierFound | DossierRealName | DossierAddress
	if Unit(Mix(uint64(p.cfg.Seed), tagLeakDeep, uint64(idx))) < 0.40 {
		d |= DossierCitizenID
	}
	return d
}

// AppendLeakRecords derives the leak-database rows of every leaked
// subscriber in sh and appends them to dst — record for record the
// rows the package tests' eager reference (leakRecord) builds from a
// fully materialized persona. Which fields a row carries is its
// subscriber's Dossier.
// Variable-length string fields (phone, address, citizen ID) are
// carved from arena; names and source labels resolve to interned
// vocabulary strings. The records are built to outlive the shard:
// arena must never be Reset while any returned record is retained, and
// tmp is a reusable scratch buffer (may be nil).
func (p *Population) AppendLeakRecords(dst []socialdb.Record, sh *Shard, arena *slab.Slab[byte], tmp []byte) ([]socialdb.Record, []byte) {
	for i := range sh.Subscribers {
		sub := &sh.Subscribers[i]
		if !sub.Leaked {
			continue
		}
		d := p.Dossier(sub.Index)
		rec := socialdb.Record{Source: SourceWiFi}
		if sub.Class == LeakBreach {
			rec.Source = SourceBreach
		}
		tmp = sub.Ref.AppendPhone(tmp[:0])
		rec.Phone = slab.StringOf(arena, tmp)
		if d&DossierRealName != 0 {
			rec.RealName = sub.Ref.RealName()
		}
		if d&DossierAddress != 0 {
			tmp = sub.Ref.AppendAddress(tmp[:0])
			rec.Address = slab.StringOf(arena, tmp)
		}
		if d&DossierCitizenID != 0 {
			tmp = sub.Ref.AppendCitizenID(tmp[:0])
			rec.CitizenID = slab.StringOf(arena, tmp)
		}
		dst = append(dst, rec)
	}
	return dst, tmp
}

// domainAdoption is the base probability that a subscriber holds an
// account on the leading service of a domain; within a domain the
// rate decays geometrically with catalog rank (everyone has the top
// messenger, few have the fifth). The values are chosen so the mean
// enrollment lands near the paper's per-user account footprint
// (roughly a dozen services) on the calibrated 201-service catalog.
var domainAdoption = map[ecosys.Domain]float64{
	ecosys.DomainFintech:   0.52,
	ecosys.DomainEmail:     0.78,
	ecosys.DomainSocial:    0.64,
	ecosys.DomainECommerce: 0.46,
	ecosys.DomainTravel:    0.18,
	ecosys.DomainCloud:     0.30,
	ecosys.DomainNews:      0.12,
	ecosys.DomainEducation: 0.08,
	ecosys.DomainGaming:    0.16,
	ecosys.DomainHealth:    0.06,
	ecosys.DomainStreaming: 0.26,
	ecosys.DomainLifestyle: 0.22,
}

// adoptionRank is the per-rank decay within a domain.
const adoptionRank = 0.72

// adoptionFloor keeps long-tail services reachable at all.
const adoptionFloor = 0.004

// adoptionRates computes per-service adoption probabilities in
// catalog order.
func adoptionRates(cat *ecosys.Catalog, scale float64) []float64 {
	rank := make(map[ecosys.Domain]int)
	out := make([]float64, 0, cat.Len())
	for _, svc := range cat.Services() {
		base, ok := domainAdoption[svc.Domain]
		if !ok {
			base = 0.10
		}
		r := rank[svc.Domain]
		rank[svc.Domain]++
		rate := base * math.Pow(adoptionRank, float64(r))
		if rate < adoptionFloor {
			rate = adoptionFloor
		}
		rate *= scale
		if rate > 1 {
			rate = 1
		}
		out = append(out, rate)
	}
	return out
}

// FingerprintVersion identifies the generation of the persona draw
// streams folded into the package tests' Fingerprint digest. Same
// seed + same version ⇒ same fingerprint across runs and machines; the
// version bumps whenever the draw pipeline changes the materialized
// bytes.
//
//	v1: per-persona math/rand sources.
//	v2: identity moved to single-word splitmix streams (seeding a
//	    rand.Source cost a 607-word table init per subscriber, ~14% of
//	    campaign CPU at 1M subscribers). Unchanged by the lazy-persona
//	    rework: lazy attribute derivation is draw-position-identical to
//	    the eager builder, so the materialized bytes never moved (the
//	    pinned-fingerprint test holds v2 digests constant).
const FingerprintVersion = 2
