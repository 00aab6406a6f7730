package faultinject

import (
	"errors"
	"testing"
	"time"
)

// TestNilInjectorIsInert pins the production-path contract: a nil
// injector never fails anything.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.At(PointJournalAppend); err != nil {
		t.Fatalf("nil At = %v", err)
	}
	if err := in.ShardAttempt(3, 0); err != nil {
		t.Fatalf("nil ShardAttempt = %v", err)
	}
}

func TestCrashFiresOnArmedHit(t *testing.T) {
	in, err := New(Config{Crash: map[Point]int{PointSnapshotWrite: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		err := in.At(PointSnapshotWrite)
		if (i == 3) != errors.Is(err, ErrCrash) {
			t.Fatalf("hit %d: err = %v", i, err)
		}
		// Unarmed points never fire.
		if err := in.At(PointJournalAppend); err != nil {
			t.Fatalf("unarmed point fired: %v", err)
		}
	}
	if in.hits[PointSnapshotWrite] != 5 {
		t.Fatalf("hits = %d", in.hits[PointSnapshotWrite])
	}
}

// TestTransientFailuresAreLeadingAndDeterministic pins the retry
// contract: shard attempt a fails iff a < k(shard), so bounded retry
// that outlasts k deterministically succeeds, and the schedule
// replays exactly for a fixed seed.
func TestTransientFailuresAreLeadingAndDeterministic(t *testing.T) {
	mk := func() *Injector {
		in, err := New(Config{Seed: 11, TransientRate: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b := mk(), mk()
	sawFailure := false
	for shard := 0; shard < 64; shard++ {
		failed := 0
		for attempt := 0; attempt < 40; attempt++ {
			ea, eb := a.ShardAttempt(shard, attempt), b.ShardAttempt(shard, attempt)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("shard %d attempt %d: schedules diverge", shard, attempt)
			}
			if ea == nil {
				// Once an attempt succeeds, every later one must too.
				for a2 := attempt; a2 < attempt+4; a2++ {
					if err := a.ShardAttempt(shard, a2); err != nil {
						t.Fatalf("shard %d: failure after success at attempt %d", shard, a2)
					}
				}
				break
			}
			if !IsTransient(ea) {
				t.Fatalf("shard %d: %v not transient", shard, ea)
			}
			failed++
		}
		if failed > 0 {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Fatal("rate 0.5 injected no failures across 64 shards")
	}
}

func TestPoisonedShardNeverClears(t *testing.T) {
	in, err := New(Config{Poisoned: []int{5}})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 10; attempt++ {
		err := in.ShardAttempt(5, attempt)
		if !errors.Is(err, ErrPoisoned) {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if IsTransient(err) {
			t.Fatal("poisoned error must not read as transient")
		}
	}
	if err := in.ShardAttempt(4, 0); err != nil {
		t.Fatalf("unpoisoned shard failed: %v", err)
	}
}

func TestBackoffBoundedExponential(t *testing.T) {
	base, max := 2*time.Millisecond, 20*time.Millisecond
	want := []time.Duration{2, 4, 8, 16, 20, 20}
	for attempt, w := range want {
		if got := Backoff(base, attempt, max); got != w*time.Millisecond {
			t.Errorf("attempt %d: %v want %v", attempt, got, w*time.Millisecond)
		}
	}
	if Backoff(0, 3, max) != 0 {
		t.Error("zero base must disable backoff")
	}
}

func TestParseCrash(t *testing.T) {
	got, err := ParseCrash("journal.append:3, snapshot.rename:1")
	if err != nil {
		t.Fatal(err)
	}
	if got[PointJournalAppend] != 3 || got[PointSnapshotRename] != 1 || len(got) != 2 {
		t.Fatalf("ParseCrash = %v", got)
	}
	if m, err := ParseCrash(""); err != nil || m != nil {
		t.Fatalf("empty spec = %v, %v", m, err)
	}
	for _, bad := range []string{"journal.append", "nope:1", "journal.append:0", "journal.append:x"} {
		if _, err := ParseCrash(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestParseShardList(t *testing.T) {
	got, err := ParseShardList("3, 17,0")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 17 || got[2] != 0 {
		t.Fatalf("ParseShardList = %v", got)
	}
	if _, err := ParseShardList("-1"); err == nil {
		t.Error("negative shard accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{TransientRate: 1.5}); err == nil {
		t.Error("rate 1.5 accepted")
	}
	if _, err := New(Config{Crash: map[Point]int{PointJournalAppend: 0}}); err == nil {
		t.Error("hit count 0 accepted")
	}
}
