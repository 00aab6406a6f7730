package campaign

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/actfort/actfort/internal/population"
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

// Entries of a closureIn group, and the words of a block: the lanes
// whose leak dossier was found, the lanes whose breach row carries the
// real name and the address (a breach row always carries both), the
// lanes whose row carries the citizen ID, then one per catalog service
// s, at inServices+s: the lanes enrolled in it.
const (
	inFound = iota
	inBreach
	inCitizenID
	inServices
)

// maxServices is the largest catalog a closureIn can index.
const maxServices = 1<<16 - inServices

// closureIn is a shard's closure inputs, lane-major: per group of 64
// subscribers in shard order (lane l of group g is the shard's
// subscriber 64g+l), the group's entries — each an entry index and the
// lanes it holds, zero words left out — at at[g]:at[g+1]. They are
// population facts — the population is immutable — so the engine keeps
// one resident closureIn per owned shard once the shard is attacked a
// second time, and it serves every radio key with no invalidation. A
// shard slot's closureIn carries the inputs of the shard last generated
// on it.
type closureIn struct {
	at        []int32
	idx       []uint16
	lanes     []uint64
	leakCount int64 // the shard's LeakCount
}

// fill builds shard sh's closure inputs into in: per group, a Dossier
// draw per subscriber and one transpose64 per enrollment word turn
// subscriber-major facts into lane words.
func (in *closureIn) fill(pop *population.Population, sh *population.Shard) {
	subs := sh.Subscribers
	in.leakCount = int64(sh.LeakCount)
	in.at = append(in.at[:0], 0)
	in.idx, in.lanes = in.idx[:0], in.lanes[:0]
	var t [64]uint64
	for g := 0; g < len(subs); g += 64 {
		rows := subs[g:min(g+64, len(subs))]
		var dossier [inServices]uint64
		for l := range rows {
			d := pop.Dossier(rows[l].Index)
			if d&population.DossierFound != 0 {
				dossier[inFound] |= 1 << l
			}
			if d&population.DossierRealName != 0 {
				dossier[inBreach] |= 1 << l
			}
			if d&population.DossierCitizenID != 0 {
				dossier[inCitizenID] |= 1 << l
			}
		}
		in.add(inFound, dossier[:])
		for w := range rows[0].Enrolled {
			for l := range rows {
				t[l] = rows[l].Enrolled[w]
			}
			clear(t[len(rows):])
			transpose64(&t)
			in.add(inServices+w<<6, t[:])
		}
		in.at = append(in.at, int32(len(in.lanes)))
	}
}

// add appends the non-zero words of lanes as entries first, first+1, ….
func (in *closureIn) add(first int, lanes []uint64) {
	for k, x := range lanes {
		if x != 0 {
			in.idx = append(in.idx, uint16(first+k))
			in.lanes = append(in.lanes, x)
		}
	}
}

// clone returns a copy of in that holds exactly its entries.
func (in *closureIn) clone() *closureIn {
	return &closureIn{at: slices.Clone(in.at), idx: slices.Clone(in.idx), lanes: slices.Clone(in.lanes), leakCount: in.leakCount}
}

// bytes is the memory a resident closureIn holds.
func (in *closureIn) bytes() int64 {
	return int64(len(in.at)*4 + len(in.idx)*2 + len(in.lanes)*8)
}
