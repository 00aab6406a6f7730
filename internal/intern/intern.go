// Package intern is the process-wide string interner behind the lazy
// persona pipeline: every small vocabulary the campaign stack keys on
// — persona full names, ecosystem service names, leak-record source
// labels — resolves to ONE canonical string per distinct content, so
// a billion-subscriber population retains at most a vocabulary's worth
// of string storage instead of one copy per subscriber, and map
// lookups keyed on interned strings hit the pointer-equality fast path
// of Go's string comparison before ever touching bytes.
//
// The table only grows (interned vocabularies are small and stable by
// contract — names, services, source labels — never per-subscriber
// uniques like phone numbers), and it is safe for concurrent use: the
// campaign worker pool interns from every worker at once, which the
// race-enabled hammer test pins.
package intern

import "sync"

// numShards spreads the table over independently locked buckets, like
// socialdb: a power of two keeps the bucket index a mask, and 64
// buckets outnumber any realistic worker pool, so concurrent interning
// almost never contends on one lock.
const numShards = 64

// shard is one lock domain of the table.
type shard struct {
	mu sync.RWMutex
	m  map[string]string
}

var shards [numShards]shard

func init() {
	for i := range shards {
		shards[i].m = make(map[string]string)
	}
}

// bucketString hashes content to its bucket (FNV-1a).
func bucketString(s string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return &shards[h&(numShards-1)]
}

// String returns the canonical instance of s, inserting s itself on
// first sight. The empty string is its own canonical form.
func String(s string) string {
	if s == "" {
		return ""
	}
	sh := bucketString(s)
	sh.mu.RLock()
	v, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		return v
	}
	sh.mu.Lock()
	v, ok = sh.m[s]
	if !ok {
		sh.m[s] = s
		v = s
	}
	sh.mu.Unlock()
	return v
}
