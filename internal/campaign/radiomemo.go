package campaign

import (
	"sync"
	"sync/atomic"

	"github.com/actfort/actfort/internal/sniffer"
)

// radioMemoMax bounds how many radio environments an engine remembers;
// the least recently used one is evicted past it. At 1M subscribers one
// environment costs about 160 KB (a bit per subscriber plus the
// per-shard counters).
const radioMemoMax = 8

// radioKey is what a shard's radio stage reads besides the engine's
// population seed and the shard index: the normalized radio
// environment, the receiver fleet and the victim segment. Policy and
// platform only shape the chain reaction, so scenarios differing in
// nothing else share one key.
type radioKey struct {
	radio   RadioEnv
	budget  AttackerBudget
	segment VictimSegment
}

// radioOut is one shard's radio stage — synth, encrypt, feed, crack —
// reduced to what the closure and the Summary read from it.
type radioOut struct {
	targeted, covered                  int64
	sessions, a50Sessions, a53Sessions int64
	sniffer                            sniffer.Stats
	// intercepted has bit li set when the shard's li-th subscriber had
	// at least one OTP session decoded. Only covered victims get
	// sessions, so every set bit is also a covered victim.
	intercepted []uint64
}

// radioShards is one radio environment's memo: an entry per owned
// shard, indexed by shard − ShardLo, nil until a completed shard
// attack stores it. Concurrent runs of the same environment may
// compute one shard twice; both store equal values and neither waits.
type radioShards struct {
	entries []atomic.Pointer[radioOut]
	used    uint64 // LRU stamp, guarded by radioMemo.mu
}

// radioMemo is an engine's bounded, exact memo of per-shard radio
// stages, keyed by radio environment. It lives only in memory:
// checkpoints never see it.
type radioMemo struct {
	mu    sync.Mutex
	clock uint64
	keys  map[radioKey]*radioShards
}

// shards returns key's per-shard entries, creating them — and evicting
// the least recently used environment past radioMemoMax — on a miss. A
// run keeps the value for its whole life, so an eviction mid-run only
// orphans that run's later stores.
func (m *radioMemo) shards(key radioKey, n int) *radioShards {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	s := m.keys[key]
	if s == nil {
		if len(m.keys) >= radioMemoMax {
			var oldest radioKey
			var stamp uint64
			for k, v := range m.keys {
				if stamp == 0 || v.used < stamp {
					oldest, stamp = k, v.used
				}
			}
			delete(m.keys, oldest)
		}
		s = &radioShards{entries: make([]atomic.Pointer[radioOut], n)}
		m.keys[key] = s
	}
	s.used = m.clock
	return s
}
