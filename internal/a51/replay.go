package a51

// This file is the bitsliced chain-replay engine — the lookup-side
// counterpart of the bitsliced encryptor in encrypt.go. A table lookup
// spends almost all of its time recomputing keystream fingerprints:
// first walking from the observed fingerprint to the next distinguished
// point, then replaying every stored chain that ends there, one cipher
// setup per chain position. RecoverBatch runs MANY lookups (all the
// sessions of a sniffer FeedBatch call) in rounds: each round, every
// unresolved lookup contributes one lane — the next fingerprint its
// scalar lookup would compute, in the scalar order — and the round's
// lanes go through the lane-sliced clock 64 at a time, with the scalar
// clock for a remainder below scalarReplayCutoff. No lane runs ahead of
// its lookup, so a batch computes exactly the fingerprints its scalar
// lookups compute (a51_chain_fingerprints_total), and a batch of one
// costs what the scalar walk costs.
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
	"math/bits"
	"runtime"
	"sync"
)

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
	phaseReplay        // replaying the chains stored at that point
	phaseVerify        // parked on a fingerprint hit at candidate pos
	phaseDone          // key recovered, exhausted, or errored
)

// lookupState tracks one sample through the batched walk + replay. pos
// is the key index whose fingerprint the lookup needs next: the walk
// position, then the replay position, then (parked) the candidate.
type lookupState struct {
	sample int // index into the samples slice
	ft     *frameTable
	frame  uint32
	fp     uint64
	phase  int
	pos    uint64

	// checks counts the walk's distinguished-point checks (it gives up
	// after maxWalk+1 of them).
	checks int

	// Replay state: the stored chains at the reached endpoint and the
	// scalar replay's place in them (chain index, position within the
	// chain). seenOff/seenMask locate this lookup's shared-tail visited
	// set in the scratch (seenMask == 0: none, as for a lone chain).
	chains   []chainRef
	chainIdx int
	posIdx   int
	seenOff  int
	seenMask uint64
}

// replayScratch is the reusable memory of one RecoverBatch call,
// recycled through its table's scratchList so campaign-scale lookup
// streams do not pay an allocation storm per shard.
type replayScratch struct {
	lookups []lookupState
	active  []int32 // unresolved lookups, in lane order
	parked  []int32 // lookups parked on a fingerprint hit
	// seen holds every lookup's visited set back to back: an
	// open-addressed table of key index + 1 (0 = empty; tables cover at
	// most 24 bits), sized past 1.5× the positions its endpoint's chains
	// hold, so it never fills. Each lookup owns its own set, exactly as
	// the scalar replay owns its map.
	seen []uint32
	// fp and check count the call's fingerprint and key-check blocks,
	// added to the lane-fill counters once per call.
	fp, check laneFill
}

// newSeenSet carves lk's empty visited set for chains holding total
// positions.
func (rs *replayScratch) newSeenSet(lk *lookupState, total uint64) {
	size := uint64(1) << bits.Len64(total+total/2)
	lk.seenOff, lk.seenMask = len(rs.seen), size-1
	rs.seen = append(rs.seen, make([]uint32, size)...)
}

// visit marks lk.pos replayed for lk and reports whether it was new. A
// lookup with no visited set (a lone chain) sees every position as new.
func (rs *replayScratch) visit(lk *lookupState) bool {
	if lk.seenMask == 0 {
		return true
	}
	set := rs.seen[lk.seenOff : lk.seenOff+int(lk.seenMask)+1]
	mark := uint32(lk.pos) + 1
	for h := (lk.pos * 0x9E3779B97F4A7C15 >> 32) & lk.seenMask; ; h = (h + 1) & lk.seenMask {
		switch set[h] {
		case 0:
			set[h] = mark
			return true
		case mark:
			return false
		}
	}
}

// scratchList is a table's free list of replay scratch: at most
// GOMAXPROCS entries, one per call that can run at once. Unlike a
// sync.Pool, a garbage collection does not empty it, so a warm caller
// keeps its grown slices across collections.
type scratchList struct {
	mu   sync.Mutex
	free []*replayScratch
}

// get takes a free scratch, or a new one when none is free.
func (l *scratchList) get() *replayScratch {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		rs := l.free[n-1]
		l.free = l.free[:n-1]
		return rs
	}
	return new(replayScratch)
}

// put resets rs and keeps it, unless the list already holds
// GOMAXPROCS entries.
func (l *scratchList) put(rs *replayScratch) {
	rs.reset()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < runtime.GOMAXPROCS(0) {
		l.free = append(l.free, rs)
	}
}

func (rs *replayScratch) reset() {
	// Drop the chain references before truncating, so the pooled
	// scratch retains capacity, not table internals.
	clear(rs.lookups)
	rs.lookups = rs.lookups[:0]
	rs.active = rs.active[:0]
	rs.parked = rs.parked[:0]
	rs.seen = rs.seen[:0]
	rs.fp, rs.check = laneFill{}, laneFill{}
}

// RecoverBatch implements Cracker: it resolves every sample by an
// overflow check, a distinguished-point walk and a chain replay, but
// gathers the fingerprint computations of all samples — walk steps and
// chain positions alike — into 64-lane bitsliced passes. A miss after
// a complete walk proves no key in the space generates the sample
// (coverage is total), so it reports ErrKeyNotFound without sweeping.
// Samples on frames outside the precomputed window go, in one call, to
// the bitsliced-sweep fallback.
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

	rs := t.scratch.get()
	defer t.scratch.put(rs)

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
		for _, o := range ft.overflowAt(fp) {
			if key := space.Key(o.x); matches(key, s.Frame, s.Keystream) {
				keys[si] = key
				resolved = true
				break
			}
		}
		if resolved {
			continue
		}
		rs.active = append(rs.active, int32(len(rs.lookups)))
		rs.lookups = append(rs.lookups, lookupState{
			sample: si, ft: ft, frame: s.Frame, fp: fp,
			phase: phaseWalk, pos: fp & (n - 1),
		})
	}

	t.runReplayRounds(ctx, rs, samples, space, n, keys, errs)
	rs.fp.flush(fingerprintFill)
	rs.check.flush(keyCheckFill)

	if len(fallback) == 0 {
		return keys, errs
	}
	metFallbacks.Add(int64(len(fallback)))
	swept := make([]Sample, len(fallback))
	for i, si := range fallback {
		swept[i] = samples[si]
	}
	fkeys, ferrs := Bitsliced{}.RecoverBatch(ctx, swept, space)
	for i, si := range fallback {
		keys[si], errs[si] = fkeys[i], ferrs[i]
	}
	return keys, errs
}

// runReplayRounds drives the batched state machine to completion. Each
// round key-checks the lookups parked on last round's fingerprint hits,
// settles every other lookup on the next position its scalar lookup
// would fingerprint, and computes those fingerprints — one lane per
// lookup — through fpBatch (the scalar clock for a remainder below
// scalarReplayCutoff). It ends when no lookup is left unresolved.
func (t *Table) runReplayRounds(ctx context.Context, rs *replayScratch, samples []Sample, space KeySpace, n uint64, keys []uint64, errs []error) {
	var (
		laneKeys   [bsLanes]uint64
		laneFrames [bsLanes]uint32
		laneFPs    [bsLanes]uint64
	)
	for {
		if err := ctx.Err(); err != nil {
			for _, li := range rs.active {
				if lk := &rs.lookups[li]; lk.phase != phaseDone {
					errs[lk.sample] = err
				}
			}
			return
		}

		rs.verifyParked(samples, space, n, keys)

		// Settle phase: keep the lookups that still need a fingerprint.
		live := rs.active[:0]
		for _, li := range rs.active {
			if t.settle(&rs.lookups[li], rs, n, errs) {
				live = append(live, li)
			}
		}
		rs.active = live
		if len(live) == 0 {
			return
		}
		metFingerprints.Add(int64(len(live)))

		// Fingerprint phase: full 64-lane blocks through the bitsliced
		// clock; a sub-cutoff remainder runs the scalar clock instead.
		// A walker steps; a replaying lookup parks on a hit or moves one
		// position along its chain.
		for base := 0; base < len(live); base += bsLanes {
			block := live[base:min(base+bsLanes, len(live))]
			for l, li := range block {
				laneKeys[l] = space.Key(rs.lookups[li].pos)
				laneFrames[l] = rs.lookups[li].frame
			}
			rs.fp.add(len(block))
			if len(block) < scalarReplayCutoff {
				for l := range block {
					laneFPs[l] = scalarFingerprint(laneKeys[l], laneFrames[l])
				}
			} else {
				fpBatch(laneKeys[:len(block)], laneFrames[:len(block)], laneFPs[:len(block)])
			}
			for l, li := range block {
				lk := &rs.lookups[li]
				switch fp := laneFPs[l]; {
				case lk.phase == phaseWalk:
					lk.pos = fp & (n - 1)
				case fp == lk.fp:
					lk.phase = phaseVerify
					rs.parked = append(rs.parked, li)
				default:
					lk.pos = fp & (n - 1)
					lk.posIdx++
				}
			}
		}
	}
}

// settle moves one lookup to the next position whose fingerprint its
// scalar lookup would compute, and reports whether it needs one. A
// walker on a distinguished point starts replaying the chains stored
// there; one past its last check gives up. A replaying lookup skips
// exhausted chains and shared tails exactly as the scalar replay loop
// does, marking the position it settles on visited, and reports
// ErrKeyNotFound after the last chain.
func (t *Table) settle(lk *lookupState, rs *replayScratch, n uint64, errs []error) bool {
	switch lk.phase {
	case phaseDone:
		return false
	case phaseWalk:
		if lk.pos&(t.chainLen-1) != 0 {
			if lk.checks++; lk.checks > t.maxWalk {
				errs[lk.sample] = ErrKeyNotFound
				lk.phase = phaseDone
				return false
			}
			return true
		}
		metWalkSteps.Observe(float64(lk.checks))
		lk.chains = t.chainsAt(lk.ft, lk.pos)
		metReplays.Add(int64(len(lk.chains)))
		lk.phase = phaseReplay
		if len(lk.chains) > 1 {
			// Same laziness as the scalar path: a lone chain has no
			// shared tails to skip, so the visited set is only built
			// when merges are possible.
			var total uint64
			for _, ch := range lk.chains {
				total += uint64(ch.length(t.space.Bits))
			}
			rs.newSeenSet(lk, total)
		}
	}
	for ; lk.chainIdx < len(lk.chains); lk.chainIdx, lk.posIdx = lk.chainIdx+1, 0 {
		ch := lk.chains[lk.chainIdx]
		if lk.posIdx == 0 {
			lk.pos = ch.start(t.space.Bits)
		}
		if lk.posIdx < ch.length(t.space.Bits) && rs.visit(lk) {
			return true
		}
	}
	errs[lk.sample] = ErrKeyNotFound
	lk.phase = phaseDone
	return false
}

// verifyParked settles every lookup parked on a fingerprint hit. The
// candidate keys' downlink bursts are generated 64 at a time through
// downlinkBatch (the scalar matcher below scalarReplayCutoff) and
// compared on exactly the bits matches compares. A pass resolves the
// lookup; a failure resumes its replay one position past the hit,
// where the scalar loop would continue.
func (rs *replayScratch) verifyParked(samples []Sample, space KeySpace, n uint64, keys []uint64) {
	var (
		laneKeys   [bsLanes]uint64
		laneFrames [bsLanes]uint32
		rows       [bsLanes]burstRow
	)
	for base := 0; base < len(rs.parked); base += bsLanes {
		block := rs.parked[base:min(base+bsLanes, len(rs.parked))]
		for l, li := range block {
			laneKeys[l] = space.Key(rs.lookups[li].pos)
			laneFrames[l] = rs.lookups[li].frame
		}
		rs.check.add(len(block))
		batched := len(block) >= scalarReplayCutoff
		if batched {
			downlinkBatch(laneKeys[:len(block)], laneFrames[:len(block)], &rows)
		}
		for l, li := range block {
			lk := &rs.lookups[li]
			ks := samples[lk.sample].Keystream
			var ok bool
			if batched {
				ok = burstMatches(&rows[l], ks)
			} else {
				ok = matches(laneKeys[l], lk.frame, ks)
			}
			if ok {
				keys[lk.sample] = laneKeys[l]
				lk.phase = phaseDone
				continue
			}
			// The hit's fingerprint is lk.fp, so its successor is lk.fp
			// mod n.
			lk.phase = phaseReplay
			lk.pos = lk.fp & (n - 1)
			lk.posIdx++
		}
	}
	rs.parked = rs.parked[:0]
}

// burstMatches reports whether a downlink burst row agrees with
// keystream on the bits matches compares: the first
// min(len(keystream)*8, BurstBits), MSB-first.
func burstMatches(row *burstRow, keystream []byte) bool {
	nbits := min(len(keystream)*8, BurstBits)
	full := nbits / 8
	if !bytes.Equal(row[:full], keystream[:full]) {
		return false
	}
	rem := nbits % 8
	return rem == 0 || (row[full]^keystream[full])>>(8-rem) == 0
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
