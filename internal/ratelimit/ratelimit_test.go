package ratelimit

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock drives the limiter deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestLimiter(rate float64, burst int) (*Limiter, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l := New(rate, burst)
	l.now = clk.now
	l.last = clk.now()
	return l, clk
}

func TestBurstThenReject(t *testing.T) {
	l, _ := newTestLimiter(1, 3)
	for i := 0; i < 3; i++ {
		if !l.Allow() {
			t.Fatalf("request %d rejected inside burst", i)
		}
	}
	if l.Allow() {
		t.Fatal("request beyond burst admitted with no refill")
	}
}

func TestRefillRate(t *testing.T) {
	l, clk := newTestLimiter(2, 4) // 2 tokens/s
	for i := 0; i < 4; i++ {
		l.Allow()
	}
	if l.Allow() {
		t.Fatal("bucket should be empty")
	}
	clk.advance(500 * time.Millisecond) // refills exactly 1 token
	if !l.Allow() {
		t.Fatal("refilled token not admitted")
	}
	if l.Allow() {
		t.Fatal("second request admitted off a single refilled token")
	}
	// A long idle period caps at the burst, not the elapsed total.
	clk.advance(time.Hour)
	admitted := 0
	for i := 0; i < 10; i++ {
		if l.Allow() {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("admitted %d after refill, want burst 4", admitted)
	}
}

// TestNilUnlimited pins the nil-limiter convention the server relies
// on: no limiter configured means every request is admitted.
func TestNilUnlimited(t *testing.T) {
	var l *Limiter
	for i := 0; i < 100; i++ {
		if !l.Allow() {
			t.Fatal("nil limiter rejected a request")
		}
	}
	if New(0, 10) != nil || New(5, 0) != nil {
		t.Fatal("zero rate or burst should build the nil (unlimited) limiter")
	}
}

// TestConcurrentAllow checks the bucket never over-admits under
// concurrent callers (run under -race in CI).
func TestConcurrentAllow(t *testing.T) {
	l, _ := newTestLimiter(1, 64)
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if l.Allow() {
					admitted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := admitted.Load(); got != 64 {
		t.Fatalf("admitted %d of 800 with frozen clock, want exactly the burst 64", got)
	}
}
