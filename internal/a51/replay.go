package a51

// This file is the bitsliced chain-replay engine — the lookup-side
// counterpart of the bitsliced encryptor in encrypt.go. A table lookup
// spends almost all of its time recomputing keystream fingerprints:
// first walking from the observed fingerprint to the next distinguished
// point, then replaying every stored chain that ends there, one cipher
// setup per chain position. RecoverBatch gathers the candidate
// positions of MANY lookups (all the sessions of a sniffer FeedBatch
// call, plus every chain of each lookup's window) and runs them
// through the lane-sliced clock 64 at a time, falling back to the
// scalar clock only for sub-64 remainders below scalarReplayCutoff.
// Table.Recover is a batch of one.
//
// A fingerprint hit is only a candidate: its key must still reproduce
// the whole sample. RecoverBatch parks the lookup and checks every
// parked candidate at the start of the next round, 64 at a time, as
// one downlink burst per lane.
//
// Equivalence contract: for every sample, RecoverBatch returns exactly
// what one scalar walk and replay of that sample alone returns (the
// reference in replay_test.go). Only cipher work is batched; each
// lookup's key checks, shared-tail visited set and chain visit order
// run in the scalar order, so even pathological fingerprint
// collisions resolve identically.

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"github.com/actfort/actfort/internal/slab"
)

// Sample is one key-recovery request: the keystream derived from a
// known-plaintext burst and the COUNT frame value it was ciphered
// under. It is the unit batched recovery (BatchCracker) works in.
type Sample struct {
	Keystream []byte
	Frame     uint32
}

// BatchCracker is the optional batched extension of Cracker: backends
// that can amortize recovery work across samples — the table backend
// bitslices its chain replays across every sample of a call — implement
// it, and batch-oriented callers (sniffer.FeedBatch) check for it and
// resolve a whole trace's samples in one RecoverBatch call. keys[i] is
// meaningful only when errs[i] is nil. Results must be identical,
// sample for sample, to calling Recover once per sample.
type BatchCracker interface {
	Cracker
	RecoverBatch(ctx context.Context, samples []Sample, space KeySpace) (keys []uint64, errs []error)
}

// scalarReplayCutoff is the lane count below which a gather round uses
// the scalar fingerprint instead of a bitsliced pass. One 64-lane pass
// costs roughly eight scalar cipher setups of boolean work, so the
// thin tail of a batch (the last few walkers, a lone lookup's final
// chains) is cheaper one key at a time.
const scalarReplayCutoff = 8

// fpBatch computes the tableFPBits-bit keystream fingerprints of up to
// 64 (key, frame) pairs in one pass of the lane-sliced clock: the
// replay-side use of the loadPairs + transpose machinery the encryptor
// introduced. Each lane may carry its own frame, which is what lets a
// FeedBatch-sized batch mix sessions scheduled on different paging
// blocks. out[l] receives lane l's fingerprint, packed like fp40.
func fpBatch(keys []uint64, frames []uint32, out []uint64) {
	var s bsState
	s.loadPairs(keys, frames)
	var planes [64]uint64
	for i := 0; i < tableFPBits; i++ {
		s.clock()
		planes[i] = s.out()
	}
	transpose64(&planes)
	for l := range keys {
		// After the transpose, word (63-l) holds lane l's keystream
		// MSB-first; the fingerprint is its top tableFPBits bits.
		out[l] = planes[63-l] >> (64 - tableFPBits)
	}
}

// lookup phases of the batched state machine.
const (
	phaseWalk   = iota // stepping toward the next distinguished point
	phaseReplay        // consuming chain fingerprints in scalar order
	phaseVerify        // parked on a fingerprint hit at candidate index p
	phaseDone          // key recovered, exhausted, or errored
)

// lookupState tracks one sample through the batched walk + replay.
type lookupState struct {
	sample int // index into the samples slice
	ft     *frameTable
	frame  uint32
	fp     uint64
	phase  int

	// Walk state: the current chain position and how many
	// distinguished-point checks have run (the walk gives up after
	// maxWalk+1 of them).
	y      uint64
	checks int

	// Replay state: the stored chains at the reached endpoint, the
	// index of this lookup's first cursor, and the scalar-order
	// consumer position (chain index, position within it, current key
	// index, shared-tail visited set). The visited set is the scratch
	// stamp array (gen != 0) for small spaces, a map otherwise; both
	// implement exactly the scalar path's set-membership semantics.
	chains     []chainRef
	cursorBase int
	chainIdx   int
	posIdx     int
	p          uint64
	gen        uint32
	visited    map[uint64]struct{}
}

// replayCursor precomputes the fingerprints of one stored chain, in
// chain order, ahead of the lookup's scalar-order consumer. Cursors
// are what the gather rounds feed through fpBatch.
type replayCursor struct {
	lookup    int    // index into the lookups slice
	pos       uint64 // next key index to fingerprint
	remaining uint32 // chain positions left to compute; 0 = dead
	fps       []uint64
}

// replayScratch is the reusable memory of one RecoverBatch call,
// recycled through a sync.Pool so campaign-scale lookup streams do not
// pay an allocation storm per shard.
type replayScratch struct {
	lookups    []lookupState
	cursors    []replayCursor
	laneKeys   []uint64
	laneFrames []uint32
	laneFPs    []uint64
	laneOwner  []int32 // >= 0: walker (lookup index); < 0: cursor index ^owner
	fpSlab     slab.Slab[uint64]
	// stamp is the shared-tail visited set for spaces up to
	// stampMaxKeys: stamp[pos] == a lookup's generation means pos was
	// replayed for that lookup. Generations make clearing free — the
	// array persists across calls and only wraps (with one clear) every
	// 2^32 lookups. Larger spaces fall back to a per-lookup map.
	stamp   []uint32
	lastGen uint32
}

// stampMaxKeys bounds the visited stamp array at 4 MiB; the 24-bit
// table build ceiling would want 64 MiB, which is not worth pinning in
// a pooled scratch.
const stampMaxKeys = 1 << 20

// nextGen hands out a fresh, never-in-the-array generation.
func (rs *replayScratch) nextGen() uint32 {
	rs.lastGen++
	if rs.lastGen == 0 { // wrapped: retire every stale stamp
		clear(rs.stamp)
		rs.lastGen = 1
	}
	return rs.lastGen
}

var replayScratchPool = sync.Pool{New: func() any { return new(replayScratch) }}

// fpBuf carves an empty fixed-capacity fingerprint buffer of capacity
// n from the scratch slab arena; carves stay valid as the arena grows
// (see internal/slab), so cursors created early in a batch never alias
// later ones.
func (rs *replayScratch) fpBuf(n int) []uint64 {
	return rs.fpSlab.GrabEmpty(n)
}

func (rs *replayScratch) reset() {
	// Drop the chain/map/buffer references before truncating, so the
	// pooled scratch retains capacity, not table internals.
	clear(rs.lookups)
	clear(rs.cursors)
	rs.lookups = rs.lookups[:0]
	rs.cursors = rs.cursors[:0]
	rs.fpSlab.Reset()
}

// RecoverBatch implements BatchCracker: it resolves every sample by an
// overflow check, a distinguished-point walk and a chain replay, but
// gathers the fingerprint computations of all samples — walk steps and
// chain positions alike — into 64-lane bitsliced passes. Samples on
// frames outside the precomputed window go through the bitsliced-sweep
// fallback.
func (t *Table) RecoverBatch(ctx context.Context, samples []Sample, space KeySpace) (keys []uint64, errs []error) {
	keys = make([]uint64, len(samples))
	errs = make([]error, len(samples))
	if space != t.space {
		// Check order per sample: an unusably short keystream reports
		// ErrBadKeystream even on a mismatched space.
		err := fmt.Errorf("%w: built for base=%#x bits=%d, asked for base=%#x bits=%d",
			ErrTableSpaceMismatch, t.space.Base, t.space.Bits, space.Base, space.Bits)
		for i := range errs {
			if len(samples[i].Keystream) < minSampleBytes {
				errs[i] = ErrBadKeystream
			} else {
				errs[i] = err
			}
		}
		return keys, errs
	}
	n, _ := space.Size()

	rs := replayScratchPool.Get().(*replayScratch)
	defer func() {
		rs.reset()
		replayScratchPool.Put(rs)
	}()

	// Classify: resolve overflow hits immediately, queue covered-frame
	// samples into the batched state machine, defer uncovered frames to
	// the sweep fallback.
	var fallback []int
	for si := range samples {
		s := &samples[si]
		if len(s.Keystream) < minSampleBytes {
			errs[si] = ErrBadKeystream
			continue
		}
		metLookups.Inc()
		ft := t.frames[s.Frame]
		if ft == nil {
			fallback = append(fallback, si)
			continue
		}
		fp := fp40(s.Keystream)
		resolved := false
		for _, x := range ft.overflow[fp] {
			if key := space.Key(x); matches(key, s.Frame, s.Keystream) {
				keys[si] = key
				resolved = true
				break
			}
		}
		if resolved {
			continue
		}
		rs.lookups = append(rs.lookups, lookupState{
			sample: si, ft: ft, frame: s.Frame, fp: fp,
			phase: phaseWalk, y: fp & (n - 1),
		})
	}

	t.runReplayRounds(ctx, rs, samples, space, n, keys, errs)

	metFallbacks.Add(int64(len(fallback)))
	for _, si := range fallback {
		keys[si], errs[si] = t.fallback.Recover(ctx, samples[si].Keystream, samples[si].Frame, space)
	}
	return keys, errs
}

// runReplayRounds drives the batched state machine to completion: each
// round first key-checks the lookups parked on a fingerprint hit, then
// transitions walkers that reached a distinguished point into replay,
// gathers one fingerprint per active walker and cursor, runs the
// gathered lanes through fpBatch (scalar below the cutoff), applies
// the results, and pumps each lookup's scalar-order consumer. It ends
// when no lane is active and no lookup is parked.
func (t *Table) runReplayRounds(ctx context.Context, rs *replayScratch, samples []Sample, space KeySpace, n uint64, keys []uint64, errs []error) {
	dpMask := t.chainLen - 1
	for {
		if err := ctx.Err(); err != nil {
			for li := range rs.lookups {
				if rs.lookups[li].phase != phaseDone {
					errs[rs.lookups[li].sample] = err
				}
			}
			return
		}

		// Verify phase: settle last round's fingerprint hits.
		t.verifyParked(rs, samples, space, n, keys, errs)

		// Transition phase: distinguished-point checks, replay setup.
		for li := range rs.lookups {
			lk := &rs.lookups[li]
			if lk.phase != phaseWalk {
				continue
			}
			if lk.y&dpMask == 0 {
				metWalkSteps.Observe(float64(lk.checks))
				metReplays.Add(int64(len(lk.ft.chains[lk.y])))
				lk.phase = phaseReplay
				lk.chains = lk.ft.chains[lk.y]
				lk.cursorBase = len(rs.cursors)
				lk.gen, lk.visited = 0, nil
				if len(lk.chains) > 1 {
					// Same laziness as the scalar path: a lone chain has
					// no shared tails to skip, so the visited set is only
					// built when merges are possible.
					if n <= stampMaxKeys {
						if uint64(len(rs.stamp)) < n {
							rs.stamp = make([]uint32, n)
						}
						lk.gen = rs.nextGen()
					} else {
						lk.visited = make(map[uint64]struct{}, t.maxWalk)
					}
				}
				for _, ch := range lk.chains {
					rs.cursors = append(rs.cursors, replayCursor{
						lookup:    li,
						pos:       ch.start,
						remaining: ch.length,
						fps:       rs.fpBuf(int(ch.length)),
					})
				}
				// Zero-chain endpoints resolve right here, as the scalar
				// walk does when it breaks out of an empty replay loop.
				t.pumpLookup(lk, rs, n, errs)
			} else if lk.checks++; lk.checks > t.maxWalk {
				errs[lk.sample] = ErrKeyNotFound
				lk.phase = phaseDone
			}
		}

		// Gather phase: one lane per walker still walking, one per live
		// cursor.
		rs.laneKeys = rs.laneKeys[:0]
		rs.laneFrames = rs.laneFrames[:0]
		rs.laneOwner = rs.laneOwner[:0]
		for li := range rs.lookups {
			lk := &rs.lookups[li]
			if lk.phase == phaseWalk {
				rs.laneKeys = append(rs.laneKeys, space.Key(lk.y))
				rs.laneFrames = append(rs.laneFrames, lk.frame)
				rs.laneOwner = append(rs.laneOwner, int32(li))
			}
		}
		for ci := range rs.cursors {
			cur := &rs.cursors[ci]
			if cur.remaining == 0 {
				continue
			}
			rs.laneKeys = append(rs.laneKeys, space.Key(cur.pos))
			rs.laneFrames = append(rs.laneFrames, rs.lookups[cur.lookup].frame)
			rs.laneOwner = append(rs.laneOwner, int32(^ci))
		}
		if len(rs.laneKeys) == 0 {
			// Nothing left to fingerprint: done, unless a consumer the
			// verify phase resumed has parked on another hit.
			parked := false
			for li := range rs.lookups {
				parked = parked || rs.lookups[li].phase == phaseVerify
			}
			if !parked {
				return
			}
			continue
		}

		// Fingerprint phase: full 64-lane blocks through the bitsliced
		// clock; a sub-cutoff remainder runs the scalar clock instead.
		if cap(rs.laneFPs) < len(rs.laneKeys) {
			rs.laneFPs = make([]uint64, len(rs.laneKeys))
		}
		rs.laneFPs = rs.laneFPs[:len(rs.laneKeys)]
		for base := 0; base < len(rs.laneKeys); base += bsLanes {
			end := base + bsLanes
			if end > len(rs.laneKeys) {
				end = len(rs.laneKeys)
			}
			if end-base < scalarReplayCutoff {
				for l := base; l < end; l++ {
					rs.laneFPs[l] = scalarFingerprint(rs.laneKeys[l], rs.laneFrames[l])
				}
				continue
			}
			fpBatch(rs.laneKeys[base:end], rs.laneFrames[base:end], rs.laneFPs[base:end])
		}

		// Apply phase: walkers step, cursors record and step; then each
		// replaying lookup's consumer pumps once, as far as the round's
		// new fingerprints allow.
		for l, owner := range rs.laneOwner {
			fp := rs.laneFPs[l]
			if owner >= 0 {
				lk := &rs.lookups[owner]
				if lk.phase == phaseWalk { // may have errored this round
					lk.y = fp & (n - 1)
				}
				continue
			}
			cur := &rs.cursors[^owner]
			cur.fps = append(cur.fps, fp)
			cur.pos = fp & (n - 1)
			cur.remaining--
		}
		for li := range rs.lookups {
			if rs.lookups[li].phase == phaseReplay {
				t.pumpLookup(&rs.lookups[li], rs, n, errs)
			}
		}
	}
}

// verifyParked settles every lookup parked on a fingerprint hit. The
// candidate keys' downlink bursts are generated 64 at a time through
// downlinkBatch (the scalar matcher below scalarReplayCutoff) and
// compared on exactly the bits matches compares. A pass resolves the
// lookup and kills its cursors; a failure resumes its consumer one
// position past the hit, where the scalar loop would continue.
func (t *Table) verifyParked(rs *replayScratch, samples []Sample, space KeySpace, n uint64, keys []uint64, errs []error) {
	rs.laneKeys = rs.laneKeys[:0]
	rs.laneFrames = rs.laneFrames[:0]
	rs.laneOwner = rs.laneOwner[:0]
	for li := range rs.lookups {
		if lk := &rs.lookups[li]; lk.phase == phaseVerify {
			rs.laneKeys = append(rs.laneKeys, space.Key(lk.p))
			rs.laneFrames = append(rs.laneFrames, lk.frame)
			rs.laneOwner = append(rs.laneOwner, int32(li))
		}
	}
	var bursts [bsLanes][BurstBytes]byte
	for base := 0; base < len(rs.laneKeys); base += bsLanes {
		end := min(base+bsLanes, len(rs.laneKeys))
		batched := end-base >= scalarReplayCutoff
		if batched {
			downlinkBatch(rs.laneKeys[base:end], rs.laneFrames[base:end], &bursts)
		}
		for l := base; l < end; l++ {
			lk := &rs.lookups[rs.laneOwner[l]]
			ks := samples[lk.sample].Keystream
			var ok bool
			if batched {
				ok = burstMatches(&bursts[l-base], ks)
			} else {
				ok = matches(rs.laneKeys[l], lk.frame, ks)
			}
			if ok {
				keys[lk.sample] = rs.laneKeys[l]
				lk.phase = phaseDone
				for c := range lk.chains {
					rs.cursors[lk.cursorBase+c].remaining = 0
				}
				continue
			}
			// The hit's fingerprint is lk.fp, so its successor is lk.fp
			// mod n; a resumed consumer that parks again waits for the
			// next round.
			lk.phase = phaseReplay
			lk.p = lk.fp & (n - 1)
			lk.posIdx++
			t.pumpLookup(lk, rs, n, errs)
		}
	}
}

// burstMatches reports whether a downlink burst agrees with keystream
// on the bits matches compares: the first min(len(keystream)*8,
// BurstBits), MSB-first.
func burstMatches(burst *[BurstBytes]byte, keystream []byte) bool {
	nbits := min(len(keystream)*8, BurstBits)
	full := nbits / 8
	if !bytes.Equal(burst[:full], keystream[:full]) {
		return false
	}
	rem := nbits % 8
	return rem == 0 || (burst[full]^keystream[full])>>(8-rem) == 0
}

// pumpLookup advances one lookup's consumer: the exact scalar replay
// loop of Recover — chains in stored order, positions in chain order,
// shared tails skipped through the visited set — except that
// fingerprints are read from the cursors' precomputed buffers instead
// of the scalar clock, and a fingerprint hit parks the lookup for the
// batched key check instead of running the scalar matcher. It stops
// when it runs out of computed fingerprints or parks; the final pump
// reports ErrKeyNotFound after the last chain.
func (t *Table) pumpLookup(lk *lookupState, rs *replayScratch, n uint64, errs []error) {
	if lk.phase != phaseReplay {
		return
	}
	for lk.chainIdx < len(lk.chains) {
		ch := lk.chains[lk.chainIdx]
		cur := &rs.cursors[lk.cursorBase+lk.chainIdx]
		if lk.posIdx == 0 {
			lk.p = ch.start
		}
		for lk.posIdx < int(ch.length) {
			var seen bool
			if lk.gen != 0 {
				seen = rs.stamp[lk.p] == lk.gen
			} else if lk.visited != nil {
				_, seen = lk.visited[lk.p]
			}
			if seen {
				break // shared tail: already replayed
			}
			if lk.posIdx >= len(cur.fps) {
				return // cursor has not computed this far yet
			}
			if lk.gen != 0 {
				rs.stamp[lk.p] = lk.gen
			} else if lk.visited != nil {
				lk.visited[lk.p] = struct{}{}
			}
			pfp := cur.fps[lk.posIdx]
			if pfp == lk.fp {
				// Fingerprint hit: park on candidate lk.p until the next
				// round's batched key check (verifyParked) resolves it or
				// resumes here one position on.
				lk.phase = phaseVerify
				return
			}
			lk.p = pfp & (n - 1)
			lk.posIdx++
		}
		// Chain fully consumed (exhausted or shared tail): its cursor
		// has nothing left to contribute.
		cur.remaining = 0
		lk.chainIdx++
		lk.posIdx = 0
	}
	errs[lk.sample] = ErrKeyNotFound
	lk.phase = phaseDone
}

// scalarFingerprint recomputes one key's 40-bit keystream fingerprint
// with the scalar clock: the sub-cutoff remainder lanes of the batched
// rounds. Reducing it modulo the space size yields the chain successor.
func scalarFingerprint(key uint64, frame uint32) uint64 {
	var c Cipher
	c.init(key, frame)
	var fp uint64
	for i := 0; i < tableFPBits; i++ {
		c.clock()
		fp = fp<<1 | uint64(c.outBit())
	}
	return fp
}
