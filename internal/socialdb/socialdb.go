// Package socialdb models the attacker's out-of-band information
// sources from §V.A.1: leaked personal-information databases used for
// targeted attacks ("the attacker could utilize the existing illegal
// databases of leaked personal information") and the phishing-WiFi
// harvester used for random attacks at airports and railway stations.
//
// All data here is synthetic (see internal/identity); the package
// exists to give the attack orchestrator the same two entry points the
// paper assumes: a victim phone number, and optionally a name/address.
//
// The store is sharded: population-scale campaigns (internal/campaign)
// hammer one DB with millions of concurrent lookups from a worker
// pool, so records are spread over NumShards independently locked
// buckets and reads take only a bucket's RLock.
package socialdb

import (
	"errors"
	"sync"

	"github.com/actfort/actfort/internal/intern"
)

// Record is one leaked entry keyed by phone number.
type Record struct {
	Phone     string
	RealName  string
	Address   string
	CitizenID string
	// Source labels provenance ("2016-breach", "phishing-wifi", ...).
	Source string
}

// ErrNotFound reports a phone with no leaked record.
var ErrNotFound = errors.New("socialdb: no record for phone")

// NumShards is the bucket count. A power of two keeps the shard index
// a mask; 64 buckets outnumber any realistic worker-pool size, so
// concurrent campaign lookups almost never contend on one lock.
const NumShards = 64

// DB is an in-memory leaked-records store. Safe for concurrent use.
type DB struct {
	shards [NumShards]dbShard
}

// dbShard is one lock domain of the store.
type dbShard struct {
	mu      sync.RWMutex
	byPhone map[string]Record
}

// shardOf hashes a phone number to its bucket (FNV-1a).
func shardOf(phone string) int {
	h := uint32(2166136261)
	for i := 0; i < len(phone); i++ {
		h = (h ^ uint32(phone[i])) * 16777619
	}
	return int(h & (NumShards - 1))
}

// New builds an empty DB.
func New() *DB {
	d := &DB{}
	for i := range d.shards {
		d.shards[i].byPhone = make(map[string]Record)
	}
	return d
}

// Add inserts or replaces a record (last write wins, as merged dumps
// behave). The source label is interned: every record of a provenance
// tier aliases one canonical string, however many dumps it arrives in.
func (d *DB) Add(r Record) {
	r.Source = intern.String(r.Source)
	s := &d.shards[shardOf(r.Phone)]
	s.mu.Lock()
	s.byPhone[r.Phone] = r
	s.mu.Unlock()
}

// AddAll bulk-inserts records, grouping lock acquisitions: each bucket
// is locked once per distinct bucket hit instead of once per record.
// The campaign's lazy harvest ingests whole shards of reconstructed
// leak records through this.
func (d *DB) AddAll(recs []Record) {
	for i := 0; i < len(recs); {
		b := shardOf(recs[i].Phone)
		s := &d.shards[b]
		s.mu.Lock()
		for ; i < len(recs) && shardOf(recs[i].Phone) == b; i++ {
			r := recs[i]
			r.Source = intern.String(r.Source)
			s.byPhone[r.Phone] = r
		}
		s.mu.Unlock()
	}
}

// Lookup fetches the record for a phone number.
func (d *DB) Lookup(phone string) (Record, error) {
	s := &d.shards[shardOf(phone)]
	s.mu.RLock()
	r, ok := s.byPhone[phone]
	s.mu.RUnlock()
	if !ok {
		return Record{}, ErrNotFound
	}
	return r, nil
}

// LookupBytes is Lookup keyed by raw phone bytes, for callers probing
// with reusable scratch buffers: the []byte→string conversion stays
// inside the map index expression, which Go compiles without a copy,
// so the hit and miss paths both allocate nothing.
func (d *DB) LookupBytes(phone []byte) (Record, error) {
	h := uint32(2166136261)
	for i := 0; i < len(phone); i++ {
		h = (h ^ uint32(phone[i])) * 16777619
	}
	s := &d.shards[h&(NumShards-1)]
	s.mu.RLock()
	r, ok := s.byPhone[string(phone)]
	s.mu.RUnlock()
	if !ok {
		return Record{}, ErrNotFound
	}
	return r, nil
}

// Len reports the number of records.
func (d *DB) Len() int {
	n := 0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		n += len(s.byPhone)
		s.mu.RUnlock()
	}
	return n
}

// PhishingWiFi is the random-attack harvester: a fake access point at
// a crowded venue collecting the phone numbers of nearby victims.
type PhishingWiFi struct {
	// SSID is the bait network name.
	SSID string

	mu       sync.Mutex
	captured []string
	seen     map[string]bool
}

// NewPhishingWiFi deploys a fake AP.
func NewPhishingWiFi(ssid string) *PhishingWiFi {
	return &PhishingWiFi{SSID: ssid, seen: make(map[string]bool)}
}

// Observe records a victim's phone number (dedup by number); it
// returns true when the number is new.
func (w *PhishingWiFi) Observe(phone string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seen[phone] {
		return false
	}
	w.seen[phone] = true
	w.captured = append(w.captured, phone)
	return true
}

// Harvested returns captured numbers in observation order.
func (w *PhishingWiFi) Harvested() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.captured...)
}
