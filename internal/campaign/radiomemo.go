package campaign

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/population"
	"github.com/actfort/actfort/internal/sniffer"
	"github.com/actfort/actfort/internal/strategy"
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

// closureIn is a shard's closure inputs: per subscriber, in shard
// order, its enrollment words. They are population facts — the
// population is immutable — so the engine keeps one resident closureIn
// per owned shard once the shard is attacked a second time, and it
// serves every radio key with no invalidation. A worker's scratch
// closureIn carries the same inputs for the victims of a shard it has
// just generated. A victim's leak dossier is not stored: the closure
// reads it from the population's draws (population.Dossier).
type closureIn struct {
	words     int      // enrollment words per subscriber
	enrolled  []uint64 // words per subscriber
	leakCount int64    // the shard's LeakCount
}

// fill copies shard sh's closure inputs into in for every subscriber
// whose bit is set in which, or for all of them when which is nil.
// Rows outside which keep stale values and must not be read.
func (in *closureIn) fill(sh *population.Shard, which []uint64) {
	n := len(sh.Subscribers)
	in.leakCount = int64(sh.LeakCount)
	in.words = len(sh.Subscribers[0].Enrolled) // a shard is never empty; every bitset has the population's width
	in.enrolled = slices.Grow(in.enrolled[:0], n*in.words)[:n*in.words]
	if which == nil {
		for li := range n {
			copy(in.enrolled[li*in.words:], sh.Subscribers[li].Enrolled)
		}
		return
	}
	for w, word := range which {
		for ; word != 0; word &= word - 1 {
			li := w<<6 | bits.TrailingZeros64(word)
			copy(in.enrolled[li*in.words:], sh.Subscribers[li].Enrolled)
		}
	}
}

// bytes is the memory a resident closureIn holds.
func (in *closureIn) bytes() int64 { return int64(len(in.enrolled) * 8) }

// dossierFactors maps a victim's leak dossier to the credential factors
// it gives the attacker.
func dossierFactors(d population.Dossier) uint64 {
	var m uint64
	if d&population.DossierRealName != 0 {
		m |= strategy.FactorBit(ecosys.FactorRealName)
	}
	if d&population.DossierAddress != 0 {
		m |= strategy.FactorBit(ecosys.FactorAddress)
	}
	if d&population.DossierCitizenID != 0 {
		m |= strategy.FactorBit(ecosys.FactorCitizenID)
	}
	return m
}
