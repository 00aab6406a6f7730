// Package ratelimit is a dependency-free token-bucket rate limiter
// for the campaign query service: a bucket of Burst tokens refilled
// continuously at Rate tokens per second. A request takes one token or
// is rejected immediately — the server turns a rejection into HTTP 429
// so overload is shed at admission instead of queueing until the
// engine drowns. Allow never blocks and never allocates; the only cost
// is one mutex and a clock read, far below the cost of the scenario
// run it gates.
package ratelimit

import (
	"sync"
	"time"
)

// Limiter is a token bucket. A nil *Limiter is a valid unlimited
// limiter (every Allow succeeds), so callers thread an optional limit
// without branching. Build with New; the zero value is not usable.
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // tokens added per second
	burst  float64 // bucket capacity
	tokens float64 // current fill
	last   time.Time
	now    func() time.Time // injectable clock for tests
}

// New builds a limiter admitting rate requests per second with bursts
// of up to burst. A rate <= 0 or burst <= 0 returns nil — the
// unlimited limiter — so flag plumbing can pass "0 = off" straight
// through.
func New(rate float64, burst int) *Limiter {
	if rate <= 0 || burst <= 0 {
		return nil
	}
	l := &Limiter{rate: rate, burst: float64(burst), now: time.Now}
	l.tokens = l.burst
	l.last = l.now()
	return l
}

// Allow takes one token if the bucket has one, reporting whether the
// request is admitted. Nil-safe: a nil limiter admits everything.
func (l *Limiter) Allow() bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	// Refill for the elapsed interval, capped at the bucket size. A
	// non-monotonic clock step just skips the refill for one call.
	if el := now.Sub(l.last).Seconds(); el > 0 {
		l.tokens += el * l.rate
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
	}
	l.last = now
	if l.tokens < 1 {
		return false
	}
	l.tokens--
	return true
}
