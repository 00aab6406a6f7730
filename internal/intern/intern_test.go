package intern

import (
	"strconv"
	"sync"
	"testing"
)

// Len reports how many distinct strings are interned.
func Len() int {
	n := 0
	for i := range shards {
		sh := &shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// TestInternCanonical pins the core contract: equal content resolves
// to one canonical string instance.
func TestInternCanonical(t *testing.T) {
	a := String("alipay")
	b := String("ali" + "pay"[:3])
	if a != b {
		t.Fatalf("String returned different content: %q vs %q", a, b)
	}
	if String("") != "" {
		t.Fatal("empty string must be its own canonical form")
	}
}

// TestInternConcurrent hammers the table from many goroutines over a
// shared vocabulary — run under
// `go test -race` (CI's race job does) this pins the locking protocol.
func TestInternConcurrent(t *testing.T) {
	const workers = 16
	const vocab = 200
	const rounds = 500
	before := Len()
	var wg sync.WaitGroup
	results := make([][]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]string, vocab)
			for r := 0; r < rounds; r++ {
				for i := 0; i < vocab; i++ {
					s := String("svc-" + strconv.Itoa(i))
					if out[i] == "" {
						out[i] = s
					} else if out[i] != s {
						t.Errorf("worker %d: word %d changed canonical form", w, i)
						return
					}
				}
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("workers %d and 0 disagree on word %d", w, i)
			}
		}
	}
	if grew := Len() - before; grew > vocab {
		t.Fatalf("table grew by %d for a %d-word vocabulary", grew, vocab)
	}
}
