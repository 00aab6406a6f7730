package socialdb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestDBAddLookup(t *testing.T) {
	d := New()
	if _, err := d.Lookup("+8613800000001"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing lookup err = %v", err)
	}
	d.Add(Record{Phone: "+8613800000001", RealName: "Wang Wei", Source: "2016-breach"})
	r, err := d.Lookup("+8613800000001")
	if err != nil || r.RealName != "Wang Wei" {
		t.Fatalf("Lookup = %+v, %v", r, err)
	}
	// Last write wins.
	d.Add(Record{Phone: "+8613800000001", RealName: "Wang Wei", Address: "1 Zheda Road", Source: "2018-breach"})
	r, _ = d.Lookup("+8613800000001")
	if r.Source != "2018-breach" || r.Address == "" {
		t.Errorf("merge semantics wrong: %+v", r)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestPhishingWiFi(t *testing.T) {
	w := NewPhishingWiFi("Free_Airport_WiFi")
	if !w.Observe("+8613800000001") {
		t.Error("first observation should be new")
	}
	if w.Observe("+8613800000001") {
		t.Error("duplicate observation reported as new")
	}
	w.Observe("+8613800000002")
	got := w.Harvested()
	if len(got) != 2 || got[0] != "+8613800000001" || got[1] != "+8613800000002" {
		t.Errorf("Harvested = %v", got)
	}
	if w.SSID != "Free_Airport_WiFi" {
		t.Errorf("SSID = %q", w.SSID)
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := New()
	w := NewPhishingWiFi("x")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				phone := string(rune('a'+i)) + "-phone"
				d.Add(Record{Phone: phone})
				_, _ = d.Lookup(phone)
				w.Observe(phone)
			}
		}(i)
	}
	wg.Wait()
	if d.Len() != 8 || len(w.Harvested()) != 8 {
		t.Errorf("Len=%d harvested=%d want 8/8", d.Len(), len(w.Harvested()))
	}
}

// TestShardedConcurrentLookups hammers the sharded store the way
// campaign workers do: writers merging dumps while readers resolve
// dossiers, across every bucket. Run under -race this pins the
// sharded-RWMutex design.
func TestShardedConcurrentLookups(t *testing.T) {
	d := New()
	const writers, readers, perWorker = 4, 8, 2000
	phone := func(w, i int) string {
		return fmt.Sprintf("+86138%02d%06d", w, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d.Add(Record{Phone: phone(w, i), RealName: "r", Source: "breach"})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Misses and hits both exercise the read path.
				_, _ = d.Lookup(phone(r%writers, i))
			}
		}(r)
	}
	wg.Wait()
	if got, want := d.Len(), writers*perWorker; got != want {
		t.Fatalf("Len = %d want %d", got, want)
	}
	for w := 0; w < writers; w++ {
		if _, err := d.Lookup(phone(w, perWorker-1)); err != nil {
			t.Fatalf("missing record for writer %d: %v", w, err)
		}
	}
}

// TestAddAll checks the campaign harvest's batch insert: records
// land in their shards with last-write-wins semantics, and the
// raw-bytes lookup agrees with Lookup.
func TestAddAll(t *testing.T) {
	d := New()
	d.Add(Record{Phone: "+8613800000001", Source: "old"})
	d.AddAll([]Record{
		{Phone: "+8613800000001", Source: "new"},
		{Phone: "+8613800000002", Source: "new"},
		{Phone: "+8613800000003", Source: "new", RealName: "Li Lei"},
	})
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	if r, _ := d.Lookup("+8613800000001"); r.Source != "new" {
		t.Fatalf("AddAll lost last write: %+v", r)
	}
	r, err := d.LookupBytes([]byte("+8613800000003"))
	if err != nil || r.RealName != "Li Lei" {
		t.Fatalf("LookupBytes = %+v, %v", r, err)
	}
	if _, err := d.LookupBytes([]byte("+8613800000009")); err != ErrNotFound {
		t.Fatalf("LookupBytes miss = %v, want ErrNotFound", err)
	}
}
