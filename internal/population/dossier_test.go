package population

import (
	"fmt"
	"testing"

	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/socialdb"
)

// TestDossierMatchesLeakDB is the oracle for Dossier. The campaign
// reads a victim's dossier from the draws instead of joining the
// victim's phone against a merged leak database; this test builds that
// database — every shard harvested with AppendLeakRecords and AddAll —
// and holds the two equal for every subscriber:
//
//   - the database holds one record per leaked subscriber (sum of
//     LeakCount), so phones are unique and no record shadows another;
//   - probing a subscriber's phone finds a record exactly when its
//     Dossier has DossierFound;
//   - each field of that record is non-empty exactly when its Dossier
//     bit is set, and the record equals the eager reference
//     (leakRecord), which never consults Dossier.
func TestDossierMatchesLeakDB(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, frac := range []float64{0, 1, -1} {
			for _, shardSize := range []int{256, 1000} {
				t.Run(fmt.Sprintf("seed=%d/leak=%g/shard=%d", seed, frac, shardSize), func(t *testing.T) {
					checkDossierOracle(t, testPop(t, Config{Seed: seed, Size: 2500, ShardSize: shardSize, LeakFraction: frac}))
				})
			}
		}
	}
}

func checkDossierOracle(t *testing.T, p *Population) {
	t.Helper()
	db := socialdb.New()
	var arena slab.Slab[byte]
	var recs []socialdb.Record
	var tmp []byte
	phones := make(map[string]bool)
	leaks := 0
	for i := range p.NumShards() {
		sh := p.Shard(i)
		recs, tmp = p.AppendLeakRecords(recs[:0], sh, &arena, tmp)
		if len(recs) != sh.LeakCount {
			t.Fatalf("shard %d: %d records, LeakCount %d", i, len(recs), sh.LeakCount)
		}
		db.AddAll(recs)
		for _, r := range recs {
			phones[r.Phone] = true
		}
		leaks += sh.LeakCount
		sh.Release()
	}
	// Every harvested record went into the database, so its size is the
	// number of distinct phones among them.
	if len(phones) != leaks {
		t.Fatalf("leak database holds %d records, shards leak %d", len(phones), leaks)
	}
	switch frac := p.LeakFraction(); {
	case frac >= 1 && leaks != p.Size():
		t.Fatalf("leak fraction %g leaked %d of %d", frac, leaks, p.Size())
	case frac < 0 && leaks != 0:
		t.Fatalf("leak fraction %g leaked %d", frac, leaks)
	}

	fields := []struct {
		bit  Dossier
		name string
		get  func(socialdb.Record) string
	}{
		{DossierRealName, "real name", func(r socialdb.Record) string { return r.RealName }},
		{DossierAddress, "address", func(r socialdb.Record) string { return r.Address }},
		{DossierCitizenID, "citizen ID", func(r socialdb.Record) string { return r.CitizenID }},
	}
	kinds := make(map[Dossier]int)
	hits := 0
	for idx := range p.Size() {
		ref := p.gen.Ref(idx)
		tmp = ref.AppendPhone(tmp[:0])
		rec, err := db.LookupBytes(tmp)
		d := p.Dossier(idx)
		kinds[d]++
		if found := err == nil; found != (d&DossierFound != 0) {
			t.Fatalf("subscriber %d: leak DB found=%v, dossier %04b", idx, found, d)
		}
		if err != nil {
			continue
		}
		hits++
		for _, f := range fields {
			if (f.get(rec) != "") != (d&f.bit != 0) {
				t.Fatalf("subscriber %d: record %s %q, dossier %04b", idx, f.name, f.get(rec), d)
			}
		}
		if want := p.leakRecord(idx, ref.Persona()); rec != want {
			t.Fatalf("subscriber %d: leak DB record %+v, eager reference %+v", idx, rec, want)
		}
	}
	if hits != leaks {
		t.Fatalf("%d probes hit, %d subscribers leaked", hits, leaks)
	}
	// Any leaking population shows every dossier kind: phishing-WiFi
	// (phone only), breach rows with and without the citizen ID.
	if leaks > 0 {
		for _, d := range []Dossier{
			DossierFound,
			DossierFound | DossierRealName | DossierAddress,
			DossierFound | DossierRealName | DossierAddress | DossierCitizenID,
		} {
			if kinds[d] == 0 {
				t.Errorf("no subscriber has dossier %04b (kinds %v)", d, kinds)
			}
		}
	}
}
