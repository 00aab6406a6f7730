package population

import (
	"math/bits"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/identity"
	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/socialdb"
)

// Has reports membership of service index i.
func (s ServiceSet) Has(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]>>(uint(i)&63)&1 == 1
}

// Count returns the number of enrolled services.
func (s ServiceSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

func testPop(t *testing.T, cfg Config) *Population {
	t.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog = dataset.MustDefault()
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDeterministicPopulation is the property test pinning the
// generator: the same seed must reproduce the population byte for
// byte, across independent Population values and across shard
// generation order.
func TestDeterministicPopulation(t *testing.T) {
	cfg := Config{Seed: 11, Size: 3000, ShardSize: 256}
	a := testPop(t, cfg)
	b := testPop(t, cfg)
	if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
		t.Fatalf("same seed, different fingerprints: %#x vs %#x", fa, fb)
	}
	if f := testPop(t, Config{Seed: 12, Size: 3000, ShardSize: 256}).Fingerprint(); f == a.Fingerprint() {
		t.Fatalf("different seed produced identical fingerprint %#x", f)
	}

	// Shard materialization must be order- and concurrency-independent.
	var wg sync.WaitGroup
	shards := make([]*Shard, a.NumShards())
	for i := a.NumShards() - 1; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shards[i] = a.Shard(i)
		}(i)
	}
	wg.Wait()
	for i, sh := range shards {
		want := b.Shard(i)
		if !reflect.DeepEqual(sh.Subscribers, want.Subscribers) {
			t.Fatalf("shard %d differs between generations", i)
		}
	}
}

func TestShardBounds(t *testing.T) {
	p := testPop(t, Config{Seed: 1, Size: 1000, ShardSize: 300})
	if got := p.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d want 4", got)
	}
	next := 0
	for i := 0; i < p.NumShards(); i++ {
		sh := p.Shard(i)
		if sh.Start != next {
			t.Fatalf("shard %d starts at %d want %d", i, sh.Start, next)
		}
		if len(sh.Subscribers) != sh.End-sh.Start {
			t.Fatalf("shard %d has %d subscribers for range [%d,%d)", i, len(sh.Subscribers), sh.Start, sh.End)
		}
		for j, sub := range sh.Subscribers {
			if sub.Index != sh.Start+j {
				t.Fatalf("subscriber index %d at shard offset %d (start %d)", sub.Index, j, sh.Start)
			}
		}
		next = sh.End
	}
	if next != p.Size() {
		t.Fatalf("shards cover %d of %d subscribers", next, p.Size())
	}
}

// eagerSubscriber is the test-only eager reference: one member built
// the way the generator used to materialize every subscriber — the
// complete persona from identity.Generator.Persona, the IMSI string,
// a freshly allocated enrollment set and the leak record from
// leakRecord (nil when unleaked).
type eagerSubscriber struct {
	IMSI     string
	Persona  identity.Persona
	Enrolled ServiceSet
	Class    LeakClass
	Record   *socialdb.Record
}

func eager(p *Population, idx int) eagerSubscriber {
	persona := identity.NewGenerator(p.Seed()).Persona(idx)
	e := eagerSubscriber{IMSI: IMSIFor(idx), Persona: persona, Enrolled: make(ServiceSet, p.words)}
	p.fillEnrollment(e.Enrolled, idx)
	if p.leaked(idx) {
		e.Class = p.leakClass(idx)
		rec := p.leakRecord(idx, persona)
		e.Record = &rec
	}
	return e
}

func TestSubscriberValidity(t *testing.T) {
	p := testPop(t, Config{Seed: 3, Size: 600, ShardSize: 600})
	sh := p.Shard(0)
	phones := make(map[string]bool, len(sh.Subscribers))
	numServices := p.Catalog().Len()
	for _, sub := range sh.Subscribers {
		e := eager(p, sub.Index)
		if !identity.ValidCitizenID(e.Persona.CitizenID) {
			t.Fatalf("subscriber %d: invalid citizen ID %q", sub.Index, e.Persona.CitizenID)
		}
		if !identity.ValidLuhn(e.Persona.Bankcard) {
			t.Fatalf("subscriber %d: invalid bankcard %q", sub.Index, e.Persona.Bankcard)
		}
		if imsi := AppendIMSI(nil, sub.Index); len(imsi) != 15 {
			t.Fatalf("subscriber %d: IMSI %q not 15 digits", sub.Index, imsi)
		}
		if phones[e.Persona.Phone] {
			t.Fatalf("duplicate phone %s", e.Persona.Phone)
		}
		phones[e.Persona.Phone] = true
		for j := numServices; j < len(sub.Enrolled)*64; j++ {
			if sub.Enrolled.Has(j) {
				t.Fatalf("subscriber %d enrolled in out-of-range service %d", sub.Index, j)
			}
		}
		if sub.Leaked != (e.Record != nil) {
			t.Fatalf("subscriber %d: Leaked=%v but leak record %v", sub.Index, sub.Leaked, e.Record)
		}
		if sub.Leaked {
			if e.Record.Phone != e.Persona.Phone {
				t.Fatalf("leak record phone %q != persona phone %q", e.Record.Phone, e.Persona.Phone)
			}
			if e.Record.Source == "" {
				t.Fatalf("leaked subscriber %d has no source", sub.Index)
			}
		}
	}
}

func TestLeakFractionAndEnrollment(t *testing.T) {
	p := testPop(t, Config{Seed: 5, Size: 20000, ShardSize: 5000})
	leaked, enrolled := 0, 0
	for i := 0; i < p.NumShards(); i++ {
		for _, sub := range p.Shard(i).Subscribers {
			if sub.Leaked {
				leaked++
			}
			enrolled += sub.Enrolled.Count()
		}
	}
	frac := float64(leaked) / float64(p.Size())
	if frac < 0.32 || frac > 0.38 {
		t.Errorf("leak fraction = %.3f want ~%.2f", frac, DefaultLeakFraction)
	}
	mean := float64(enrolled) / float64(p.Size())
	if mean < 6 || mean > 25 {
		t.Errorf("mean enrollment = %.1f services, outside the calibrated band", mean)
	}
}

func TestLeakFractionDisabled(t *testing.T) {
	p := testPop(t, Config{Seed: 5, Size: 500, ShardSize: 500, LeakFraction: -1})
	sh := p.Shard(0)
	if n := sh.LeakCount; n != 0 {
		t.Fatalf("negative LeakFraction leaked %d subscribers", n)
	}
	if recs, _ := p.AppendLeakRecords(nil, sh, &slab.Slab[byte]{}, nil); len(recs) != 0 {
		t.Fatalf("negative LeakFraction leaked %d records", len(recs))
	}
}

// TestLazyMatchesMaterialized pins the compact representation against
// the eager reference: every derivable attribute, the leak
// classification and the reconstructed leak records must agree byte
// for byte, and shard recycling (Release + regenerate) must not
// perturb any of it.
func TestLazyMatchesMaterialized(t *testing.T) {
	lazy := testPop(t, Config{Seed: 9, Size: 1200, ShardSize: 500})

	var arena slab.Slab[byte]
	var tmp []byte
	for i := 0; i < lazy.NumShards(); i++ {
		// Generate and immediately release once, so the compared shard
		// exercises the pooled-storage path.
		lazy.Shard(i).Release()
		ls := lazy.Shard(i)
		var want []socialdb.Record
		for j := range ls.Subscribers {
			lsub := &ls.Subscribers[j]
			if lsub.Index != ls.Start+j {
				t.Fatalf("shard %d sub %d: index %d", i, j, lsub.Index)
			}
			e := eager(lazy, lsub.Index)
			if lsub.Leaked != (e.Record != nil) || lsub.Class != e.Class {
				t.Fatalf("shard %d sub %d: flag mismatch lazy=%+v eager=%+v", i, j, lsub, e)
			}
			if !reflect.DeepEqual(lsub.Enrolled, e.Enrolled) {
				t.Fatalf("shard %d sub %d: enrollment mismatch", i, j)
			}
			if got := string(AppendIMSI(nil, lsub.Index)); got != e.IMSI {
				t.Fatalf("sub %d: IMSI %q != %q", lsub.Index, got, e.IMSI)
			}
			if got := string(lsub.Ref.AppendPhone(nil)); got != e.Persona.Phone {
				t.Fatalf("sub %d: phone %q != %q", lsub.Index, got, e.Persona.Phone)
			}
			if got := lsub.Ref.Persona(); !reflect.DeepEqual(got, e.Persona) {
				t.Fatalf("sub %d: persona mismatch\nlazy  %+v\neager %+v", lsub.Index, got, e.Persona)
			}
			if e.Record != nil {
				want = append(want, *e.Record)
			}
		}
		if ls.LeakCount != len(want) {
			t.Fatalf("shard %d: LeakCount %d, eager reference leaks %d", i, ls.LeakCount, len(want))
		}
		var got []socialdb.Record
		got, tmp = lazy.AppendLeakRecords(got, ls, &arena, tmp)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d: AppendLeakRecords mismatch (%d vs %d records)", i, len(got), len(want))
		}
		ls.Release()
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Size: 0}); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New(Config{Size: 10, ShardSize: -1}); err == nil {
		t.Error("negative shard size accepted")
	}
}

// TestSubscriberSize pins the compact subscriber at 56 bytes on 64-bit
// platforms: index, Ref, the Enrolled slice header and the leak flags.
func TestSubscriberSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Subscriber{}); got != 56 {
		t.Fatalf("Subscriber is %d bytes, want 56", got)
	}
}

// BenchmarkShard compares compact shard generation with building the
// same 4096 members through the test-only eager reference — the
// allocation profile the lazy representation replaced.
func BenchmarkShard(b *testing.B) {
	p, err := New(Config{Seed: 42, Size: DefaultShardSize})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("eager", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for idx := 0; idx < p.Size(); idx++ {
				_ = eager(p, idx)
			}
		}
		b.ReportMetric(float64(p.Size())*float64(b.N)/b.Elapsed().Seconds(), "subs/s")
	})
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Shard(0).Release()
		}
		b.ReportMetric(float64(p.Size())*float64(b.N)/b.Elapsed().Seconds(), "subs/s")
	})
}
