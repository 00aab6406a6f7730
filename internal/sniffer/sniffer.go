// Package sniffer implements the paper's passive GSM interception rig
// (Fig 6): a farm of single-frequency receivers (the 16 Motorola C118
// phones running OsmocomBB), burst reassembly, A5/1 session-key
// recovery via the known-plaintext paging burst, SMS-DELIVER decoding
// and Wireshark-style display filtering (Fig 5).
//
// Coverage is physical: a receiver hears only the ARFCN it is tuned
// to, so interception probability scales with how many of the cell's
// channels the attacker can cover — reproduced by experiment E6.
//
// One session pipeline: Feed is FeedBatch over a single burst, and
// FeedBatch batches both payload decryption (64-lane a51 encryptor)
// and fresh key recovery (one a51.Cracker.RecoverBatch call per trace,
// deduplicated against the session and auth-context caches), yet
// produces exactly the captures, statistics and cache state of
// resolving the trace's sessions one at a time in trace order. The
// only crack outside that call is a batch of one, for a session the
// prefetch could not foresee missing the caches.
//
// Reassembly is dense: each in-flight session keeps its bursts in a
// slot slice indexed by Seq and completes when every slot is filled, so
// a complete session always has its paging burst and every payload
// burst. A burst that does not fit its session — Seq outside
// [0, Total), or a Total that is not positive or exceeds the cap on
// session length — is counted and dropped, and so is a burst whose
// PayloadLen overstates its inline payload.
//
// Bursts are values: a session slot holds its own copy of the burst,
// payload included. FeedBatch decrypts completed sessions in place in
// those slots, so the rig never holds a reference into the caller's
// trace, and the caller may reuse the trace memory as soon as the call
// returns.
//
// A rig is built to be recycled: Reset empties it in place, keeping the
// capacity of its session table, Kc caches and capture slice, and
// DrainSessionIDs moves the captures' session IDs into caller-owned
// storage. A campaign worker that feeds a shard in chunks, draining
// each chunk's captures into a reused slice, and resets the rig
// allocates nothing per shard in steady state, and its buffers grow
// with the largest chunk it fed, not with the shard.
package sniffer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/gsmcodec"
	"github.com/actfort/actfort/internal/obs"
	"github.com/actfort/actfort/internal/telecom"
)

// Capture is one fully decoded SMS, the unit Fig 5 displays.
type Capture struct {
	ARFCN      int
	CellID     string
	SessionID  uint32
	Originator string
	Text       string
	Timestamp  time.Time
	// Encrypted records whether the session was A5/1-protected.
	Encrypted bool
	// Kc is the recovered session key (zero for plaintext traffic).
	Kc uint64
	// CrackTime is how long key recovery took (zero for plaintext).
	CrackTime time.Duration
}

// WiresharkLine renders the capture like the paper's Fig 5 screenshot.
func (c Capture) WiresharkLine() string {
	enc := "A5/0"
	if c.Encrypted {
		enc = "A5/1"
	}
	return fmt.Sprintf("%s  ARFCN %d  %s  GSM SMS (%s)  %q",
		c.Timestamp.Format("2006-01-02 15:04:05"), c.ARFCN, c.Originator, enc, c.Text)
}

// Stats summarizes a sniffing run.
type Stats struct {
	BurstsSeen       int
	SessionsComplete int
	MessagesDecoded  int
	CracksAttempted  int
	CracksSucceeded  int
	CrackCacheHits   int
	// KcReuseHits counts sessions decrypted straight from the
	// per-subscriber (IMSI, RAND) cache: the network skipped
	// re-authentication, reused a session key the rig had already
	// cracked, and handed the traffic over for free. KcReuseMisses
	// counts eligible sessions (identity context on the air) whose
	// auth context had not been cracked yet. Campaign metrics consume
	// both to quantify the Kc-reuse weakness at population scale.
	KcReuseHits   int
	KcReuseMisses int
	// A53Abandoned counts complete sessions the rig gave up on because
	// the ciphering mode announced A5/3: the cipher upgrade defeats
	// every A5/1 backend, so no search effort is spent. Fortification
	// sweeps read this as the radio-hardening win.
	A53Abandoned int
	FilteredOut  int
}

// Add accumulates other into s — the merge used when per-shard rigs
// report into one campaign-wide counter set.
func (s *Stats) Add(other Stats) {
	s.BurstsSeen += other.BurstsSeen
	s.SessionsComplete += other.SessionsComplete
	s.MessagesDecoded += other.MessagesDecoded
	s.CracksAttempted += other.CracksAttempted
	s.CracksSucceeded += other.CracksSucceeded
	s.CrackCacheHits += other.CrackCacheHits
	s.KcReuseHits += other.KcReuseHits
	s.KcReuseMisses += other.KcReuseMisses
	s.A53Abandoned += other.A53Abandoned
	s.FilteredOut += other.FilteredOut
}

// Config parameterizes a Sniffer.
type Config struct {
	// MaxReceivers caps simultaneously tuned ARFCNs; the paper's rig
	// had 16 C118 handsets. Zero means DefaultMaxReceivers.
	MaxReceivers int
	// Cracker is the key-recovery backend. Nil selects the bitsliced
	// search (a51.Bitsliced); a precomputed a51.Table turns
	// per-session recovery into an amortized table lookup.
	Cracker a51.Cracker
	// Filter, when non-nil, restricts Captures to matching messages;
	// non-matching messages are still decoded and counted.
	Filter Filter
}

// DefaultMaxReceivers matches the paper's hardware.
const DefaultMaxReceivers = 16

// ErrTooManyReceivers reports a Tune beyond receiver capacity.
var ErrTooManyReceivers = errors.New("sniffer: not enough receivers for requested ARFCNs")

// Sniffer is the passive interception rig. Create with New, point
// receivers with Tune, then read Captures. Safe for concurrent use.
type Sniffer struct {
	net *telecom.Network
	cfg Config

	mu       sync.Mutex
	cancels  map[int]func()
	sessions map[uint32]*session
	captures []Capture
	stats    Stats
	// kcCache remembers recovered session keys by session ID, so
	// replayed bursts under an already-cracked key (recorded traces,
	// retransmissions) skip recovery entirely. Bounded at kcCacheMax
	// entries: live traffic never reuses session IDs, so only recent
	// sessions are worth remembering.
	kcCache map[uint32]uint64
	// subKc remembers recovered keys by authentication context, so a
	// network that skips re-authentication (telecom.Config.ReauthEvery)
	// hands over every follow-up session of a subscriber after one
	// crack. Keyed on (IMSI, RAND) — both visible on the air in real
	// GSM — and bounded like kcCache.
	subKc map[subKcKey]uint64
	// fs is the rig's own FeedBatch scratch, kept across calls and
	// across Reset, so a rig fed shard after shard reuses one set of
	// buffers sized to its largest trace. A FeedBatch that finds it
	// taken by a concurrent call builds a fresh one, and the first to
	// finish parks its scratch here.
	fs *feedScratch
	// sessFree recycles completed session buffers (a slot slice per
	// session is a real GC cost when a campaign streams millions of
	// sessions through one rig). Invisible state: Reset keeps it.
	sessFree []*session
	// TPDU decode memo: campaign traffic reassembles the same OTP TPDU
	// for millions of sessions, so record caches the last decode keyed
	// by the raw bytes. Content-addressed, hence correctness-neutral;
	// Reset keeps it.
	lastTPDU []byte
	lastMsg  gsmcodec.Deliver
	lastErr  error
	haveTPDU bool
	// crackObs, when non-nil, additionally receives every batched-crack
	// duration the rig observes into the process-wide
	// sniffer_crack_batch_seconds series. Campaign runs park their
	// run-local crack histogram here for the duration of a rig
	// checkout, so concurrent scenarios each report only their own
	// crack timings.
	crackObs *obs.Histogram
}

// subKcKey identifies one subscriber authentication context. It holds
// the burst's inline IMSI, so a key owns its bytes and keeps no
// caller's memory alive.
type subKcKey struct {
	imsi telecom.IMSI
	rand [16]byte
}

// kcCacheMax bounds the replay key cache; on overflow an arbitrary
// entry is evicted (sessions are short-lived, so any stale entry is
// equally disposable).
const kcCacheMax = 4096

// session reassembles one transmission in dense slots: bursts[seq]
// holds the burst with that Seq, and the slice is as long as the Total
// the session's first burst announced. Bit seq of present records that
// the slot is filled, and the session is complete when every slot is
// filled — so a complete session always holds its paging burst (seq 0)
// and every payload burst. A duplicate Seq overwrites its slot without
// counting again. Recycled sessions keep the capacity of bursts.
type session struct {
	bursts  []telecom.RadioBurst
	present uint64
}

// maxSessionBursts caps the Total a session may announce. The largest
// TPDU gsmcodec marshals (a 20-digit originator and 160 septets of
// text) takes 13 bursts; the cap leaves headroom and lets present be
// one word. A burst claiming a larger session is counted and dropped,
// so a replayed trace cannot size an absurd allocation.
const maxSessionBursts = 64

// New builds a sniffer against a network.
func New(net *telecom.Network, cfg Config) *Sniffer {
	if cfg.MaxReceivers <= 0 {
		cfg.MaxReceivers = DefaultMaxReceivers
	}
	if cfg.Cracker == nil {
		cfg.Cracker = a51.Bitsliced{}
	}
	return &Sniffer{
		net:      net,
		cfg:      cfg,
		cancels:  make(map[int]func()),
		sessions: make(map[uint32]*session),
		kcCache:  make(map[uint32]uint64),
		subKc:    make(map[subKcKey]uint64),
	}
}

// Tune points receivers at the given ARFCNs (idempotent per channel).
// It fails with ErrTooManyReceivers when the rig is out of handsets.
func (s *Sniffer) Tune(arfcns ...int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Count each ARFCN once, however many times the call repeats it —
	// Tune(5, 5) needs one receiver, not two.
	fresh := 0
	seen := make(map[int]bool, len(arfcns))
	for _, a := range arfcns {
		if _, ok := s.cancels[a]; !ok && !seen[a] {
			seen[a] = true
			fresh++
		}
	}
	if len(s.cancels)+fresh > s.cfg.MaxReceivers {
		return fmt.Errorf("%w: tuned %d, requested %d more, capacity %d",
			ErrTooManyReceivers, len(s.cancels), fresh, s.cfg.MaxReceivers)
	}
	for _, a := range arfcns {
		if _, ok := s.cancels[a]; ok {
			continue
		}
		cancel := s.net.Subscribe(a, s.Feed)
		s.cancels[a] = cancel
	}
	return nil
}

// Tuned returns the currently tuned ARFCNs, sorted.
func (s *Sniffer) Tuned() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.cancels))
	for a := range s.cancels {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// Stop releases all receivers.
func (s *Sniffer) Stop() {
	s.mu.Lock()
	cancels := make([]func(), 0, len(s.cancels))
	for _, c := range s.cancels {
		cancels = append(cancels, c)
	}
	s.cancels = make(map[int]func())
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// Feed processes one burst — a FeedBatch of one. It is the Subscribe
// callback, and is also exported for replaying recorded traffic
// (failure-injection tests feed lossy traces directly).
func (s *Sniffer) Feed(b telecom.RadioBurst) {
	s.FeedBatch([]telecom.RadioBurst{b})
}

// feedScratch is the reusable memory of one FeedBatch call — completed
// sessions, the crack prefetch queue, the sessions awaiting decryption
// and the TPDU assembly buffer — kept on the rig between calls so a
// campaign shard's trace costs no per-session allocation storm. It
// holds no payload bytes: those stay in the completed sessions' slots,
// and the decryption lanes pointing into them are gathered on the
// stack (telecom.LaneBatch).
type feedScratch struct {
	completed []*session
	// Crack prefetch state: crackOf[i] is the sample index queued for
	// completed[i] (-1 when resolution will not need a fresh crack),
	// ks[k] is sample k's keystream, and pendSess/pendSub dedupe
	// repeats of one session ID or one (IMSI, RAND) auth context within
	// the batch.
	crackOf  []int32
	ks       [][telecom.PagingPlaintextLen]byte
	samples  []a51.Sample
	keys     []uint64
	errs     []error
	share    time.Duration
	pendSess map[uint32]int32
	pendSub  map[subKcKey]int32
	// Decrypt/record state.
	pend []pendingCapture
	tpdu []byte
}

// pendingCapture is one resolved session awaiting batched decryption.
type pendingCapture struct {
	sess      *session
	kc        uint64
	crackTime time.Duration
}

func newFeedScratch() *feedScratch {
	return &feedScratch{
		pendSess: make(map[uint32]int32),
		pendSub:  make(map[subKcKey]int32),
	}
}

// reset drops every reference the scratch accumulated (so the rig
// retains capacity, not sessions or payloads) and empties it.
func (fs *feedScratch) reset() {
	clear(fs.completed)
	clear(fs.samples)
	clear(fs.pend)
	clear(fs.pendSess)
	clear(fs.pendSub)
	fs.completed = fs.completed[:0]
	fs.crackOf = fs.crackOf[:0]
	fs.ks = fs.ks[:0]
	fs.samples = fs.samples[:0]
	fs.keys, fs.errs, fs.share = nil, nil, 0
	fs.pend = fs.pend[:0]
	fs.tpdu = fs.tpdu[:0]
}

// FeedBatch ingests a trace of bursts — one chunk of a shard's
// recorded traffic on the campaign engine's path, a single burst on the
// live path (Feed).
// Sessions complete exactly as they would burst by burst, and two
// batch engines do the per-session work: every fresh key recovery the
// batch needs is resolved in ONE a51.Cracker.RecoverBatch call (for
// a table, 64-lane bitsliced chain replay across all sessions; see
// prefetchCracks), and the A5/1 payload decryption of every completed
// session runs through the 64-lane bitsliced batch encryptor.
// Captures, statistics and Kc-cache behavior are identical to feeding
// the same bursts through Feed in order, so a trace split into
// consecutive pieces, each fed by its own call, ends in the state one
// call over the whole trace leaves. The rig's buffers — the session
// freelist, the FeedBatch scratch and the cracker's batch scratch —
// grow with the largest piece, not with the trace.
//
// A burst whose Seq lies outside its session's [0, Total), that opens
// a session with a Total outside [1, maxSessionBursts], or whose
// PayloadLen exceeds BurstPayloadMax, is counted in BurstsSeen and
// otherwise dropped.
//
// The input bursts are only read during the call (each is copied into
// its session slot), so callers may recycle the trace memory, e.g. a
// telecom.BurstBuffer, once FeedBatch returns.
func (s *Sniffer) FeedBatch(bursts []telecom.RadioBurst) {
	s.mu.Lock()
	fs := s.fs
	s.fs = nil
	if fs == nil {
		fs = newFeedScratch()
	}
	defer s.putScratch(fs)
	for i := range bursts {
		if sess, complete := s.ingestLocked(&bursts[i]); complete {
			fs.completed = append(fs.completed, sess)
		}
	}
	s.mu.Unlock()
	if len(fs.completed) == 0 {
		return // most live Feed calls: nothing to crack, decrypt or observe
	}

	s.prefetchCracks(fs)

	// Resolve every completed session in trace order — cache hits,
	// prefetched cracks and the rare batch-of-one crack — queueing the
	// encrypted payload bursts of resolvable sessions as decryption
	// lanes. Unresolvable sessions cost no batched cipher work.
	var lanes telecom.LaneBatch
	nlanes := 0
	for ci, sess := range fs.completed {
		var pre *crackResult
		if fs.crackOf[ci] >= 0 {
			k := fs.crackOf[ci]
			pre = &crackResult{kc: fs.keys[k], err: fs.errs[k], took: fs.share}
		}
		kc, crackTime, ok := s.resolveSession(&sess.bursts[0], pre)
		if !ok {
			continue
		}
		// The lanes decrypt in place in the session's own slots, which
		// the rig owns until recycleSessions.
		for i := 1; i < len(sess.bursts); i++ {
			if b := &sess.bursts[i]; b.Encrypted {
				lanes.Add(kc, b.Frame, b.Bytes())
				nlanes++
			}
		}
		fs.pend = append(fs.pend, pendingCapture{sess: sess, kc: kc, crackTime: crackTime})
	}
	metFeedLanes.Observe(float64(nlanes))
	lanes.Flush()
	for i := range fs.pend {
		s.record(fs, &fs.pend[i])
	}
	s.recycleSessions(fs.completed...)
}

// putScratch empties fs and parks it as the rig's own scratch, unless
// a concurrent FeedBatch parked one first.
func (s *Sniffer) putScratch(fs *feedScratch) {
	fs.reset()
	s.mu.Lock()
	if s.fs == nil {
		s.fs = fs
	}
	s.mu.Unlock()
}

// prefetchCracks is the batched half of key recovery: one pass over
// the completed sessions decides, against the current cache state,
// which will need a fresh crack — deduplicating repeats of one session
// ID and of one (IMSI, RAND) auth context within the batch, since the
// first crack fills the cache the rest will hit — and resolves all of
// them in a single RecoverBatch call. The results are only a memo:
// resolution still runs in trace order against the real caches
// (resolveSession), so statistics, cache fills and returned keys stay
// byte-identical to one-at-a-time resolution; a prefetch the
// sequential pass disagrees with is ignored, and a miss it did not
// foresee (a cache entry evicted between passes, or a duplicate whose
// first crack failed) cracks as a batch of one.
func (s *Sniffer) prefetchCracks(fs *feedScratch) {
	s.mu.Lock()
	for _, sess := range fs.completed {
		fs.crackOf = append(fs.crackOf, -1)
		paging := &sess.bursts[0]
		if paging.Cipher == telecom.CipherA53 || !paging.Encrypted {
			continue
		}
		if _, hit := s.kcCache[paging.SessionID]; hit {
			continue
		}
		if _, hit := fs.pendSess[paging.SessionID]; hit {
			continue
		}
		subKey := subKcKey{imsi: paging.IMSI, rand: paging.RAND}
		if !paging.IMSI.IsZero() {
			if _, hit := s.subKc[subKey]; hit {
				continue
			}
			if _, hit := fs.pendSub[subKey]; hit {
				continue
			}
		}
		ks, ok := paging.PagingKeystream()
		if !ok {
			continue // resolveSession fails the same derivation
		}
		idx := int32(len(fs.samples))
		fs.ks = append(fs.ks, ks)
		fs.samples = append(fs.samples, a51.Sample{Frame: paging.Frame})
		fs.crackOf[len(fs.crackOf)-1] = idx
		fs.pendSess[paging.SessionID] = idx
		if !paging.IMSI.IsZero() {
			fs.pendSub[subKey] = idx
		}
	}
	s.mu.Unlock()
	if len(fs.samples) == 0 {
		return
	}
	// The samples point into fs.ks, which has stopped growing.
	for k := range fs.samples {
		fs.samples[k].Keystream = fs.ks[k][:]
	}
	fs.keys, fs.errs, fs.share = s.crack(fs.samples)
}

// crack resolves samples in one RecoverBatch call, observes the call's
// wall time, and returns each sample's amortized share of it: the
// honest per-message cost of an amortized engine.
func (s *Sniffer) crack(samples []a51.Sample) (keys []uint64, errs []error, share time.Duration) {
	s.mu.Lock()
	crackObs := s.crackObs
	s.mu.Unlock()
	start := time.Now()
	keys, errs = s.cfg.Cracker.RecoverBatch(context.Background(), samples, s.net.KeySpace())
	metCrackBatch.ObserveSince(start)
	if crackObs != nil {
		crackObs.ObserveSince(start)
	}
	return keys, errs, time.Since(start) / time.Duration(len(samples))
}

// recycleSessions returns completed session buffers to the freelist.
// The bursts hold no pointer, and a reused slot is refilled before its
// session completes, so only the present bits are cleared. Callers
// must be completely done with the sessions: they are out of
// s.sessions already (ingestLocked removed them on completion), so the
// freelist is the only remaining reference.
func (s *Sniffer) recycleSessions(sessions ...*session) {
	for _, sess := range sessions {
		sess.present = 0
	}
	s.mu.Lock()
	s.sessFree = append(s.sessFree, sessions...)
	s.mu.Unlock()
}

// ingestLocked copies one burst into its session slot, returning the
// session and whether this burst completed it. A burst that does not
// fit (see FeedBatch) is counted and dropped. Requires s.mu held.
func (s *Sniffer) ingestLocked(b *telecom.RadioBurst) (*session, bool) {
	s.stats.BurstsSeen++
	if int(b.PayloadLen) > len(b.Payload) {
		return nil, false
	}
	sess := s.sessions[b.SessionID]
	total := int(b.Total)
	if sess != nil {
		total = len(sess.bursts)
	}
	if total <= 0 || total > maxSessionBursts || int(b.Seq) >= total {
		return nil, false
	}
	if sess == nil {
		if n := len(s.sessFree); n > 0 {
			sess = s.sessFree[n-1]
			s.sessFree = s.sessFree[:n-1]
		} else {
			sess = new(session)
		}
		if cap(sess.bursts) < total {
			sess.bursts = make([]telecom.RadioBurst, total)
		}
		sess.bursts = sess.bursts[:total]
		s.sessions[b.SessionID] = sess
	}
	sess.bursts[b.Seq] = *b
	sess.present |= 1 << b.Seq
	if bits.OnesCount64(sess.present) < total {
		return sess, false
	}
	delete(s.sessions, b.SessionID)
	s.stats.SessionsComplete++
	return sess, true
}

// crackResult carries one session's key recovery into resolveSession:
// the key (or error) RecoverBatch produced for the session's sample,
// and the sample's amortized share of the call's wall time.
type crackResult struct {
	kc   uint64
	err  error
	took time.Duration
}

// resolveSession produces the session key for one complete
// transmission from its paging burst — replay cache, per-subscriber
// (IMSI, RAND) cache, or a fresh crack — updating the crack
// statistics. ok is false when the session is unusable: A5/3
// announced, or recovery failed. When the caches miss, pre is the
// batch's prefetched result for this paging burst, or nil when the
// prefetch did not foresee the miss; then the session cracks as a
// batch of one (the same sample, so the same result by determinism of
// the backend). Cache consultation order, statistic increments, cache
// fills and eviction run in the caller's session order either way.
func (s *Sniffer) resolveSession(paging *telecom.RadioBurst, pre *crackResult) (kc uint64, crackTime time.Duration, ok bool) {
	if paging.Cipher == telecom.CipherA53 {
		// The ciphering mode travels in the clear; A5/3 is beyond every
		// backend, so the rig abandons the session without searching.
		s.mu.Lock()
		s.stats.A53Abandoned++
		s.mu.Unlock()
		metA53Abandoned.Inc()
		return 0, 0, false
	}
	if !paging.Encrypted {
		return 0, 0, true
	}

	subKey := subKcKey{imsi: paging.IMSI, rand: paging.RAND}
	subEligible := !paging.IMSI.IsZero()
	s.mu.Lock()
	cached, hit := s.kcCache[paging.SessionID]
	if hit {
		s.stats.CrackCacheHits++
		metCrackCacheHits.Inc()
	} else if subEligible {
		// Session unseen — but the network may have reused an
		// authentication context the rig already cracked.
		if k, ok := s.subKc[subKey]; ok {
			cached, hit = k, true
			s.stats.KcReuseHits++
			metKcReuseHits.Inc()
		} else {
			s.stats.KcReuseMisses++
			metKcReuseMisses.Inc()
		}
	}
	s.mu.Unlock()
	if hit {
		return cached, 0, true
	}

	if pre == nil {
		ks, derived := paging.PagingKeystream()
		if !derived {
			return 0, 0, false
		}
		keys, errs, took := s.crack([]a51.Sample{{Keystream: ks[:], Frame: paging.Frame}})
		pre = &crackResult{kc: keys[0], err: errs[0], took: took}
	}
	s.mu.Lock()
	s.stats.CracksAttempted++
	s.mu.Unlock()
	metCracksAttempted.Inc()
	if pre.err != nil {
		return 0, 0, false
	}
	kc, crackTime = pre.kc, pre.took
	metCracksSucceeded.Inc()
	s.mu.Lock()
	s.stats.CracksSucceeded++
	if len(s.kcCache) >= kcCacheMax {
		for id := range s.kcCache {
			delete(s.kcCache, id)
			break
		}
	}
	s.kcCache[paging.SessionID] = kc
	if subEligible {
		if len(s.subKc) >= kcCacheMax {
			for k := range s.subKc {
				delete(s.subKc, k)
				break
			}
		}
		s.subKc[subKey] = kc
	}
	s.mu.Unlock()
	return kc, crackTime, true
}

// record assembles a resolved session's TPDU from its decrypted
// payload bursts (sess.bursts[1:]) into fs.tpdu, decodes it and files
// the capture under the paging burst's coordinates.
func (s *Sniffer) record(fs *feedScratch, p *pendingCapture) {
	fs.tpdu = fs.tpdu[:0]
	for i := 1; i < len(p.sess.bursts); i++ {
		fs.tpdu = append(fs.tpdu, p.sess.bursts[i].Bytes()...)
	}
	tpdu, paging := fs.tpdu, &p.sess.bursts[0]
	s.mu.Lock()
	hit := s.haveTPDU && bytes.Equal(tpdu, s.lastTPDU)
	msg, err := s.lastMsg, s.lastErr
	s.mu.Unlock()
	if !hit {
		// Decode outside the lock: live rigs with heterogeneous traffic
		// miss the memo on most messages and must not serialize decoding
		// behind the ingest mutex. Two concurrent misses both decode and
		// the last memo write wins — content-keyed, so still correct.
		msg, err = gsmcodec.UnmarshalDeliver(tpdu)
		s.mu.Lock()
		s.lastMsg, s.lastErr = msg, err
		s.lastTPDU = append(s.lastTPDU[:0], tpdu...)
		s.haveTPDU = true
		s.mu.Unlock()
	}
	if err != nil {
		return
	}

	capt := Capture{
		ARFCN:      paging.ARFCN,
		CellID:     paging.Cell.ID(),
		SessionID:  paging.SessionID,
		Originator: msg.Originator,
		Text:       msg.Text,
		Timestamp:  msg.Timestamp,
		Encrypted:  paging.Encrypted,
		Kc:         p.kc,
		CrackTime:  p.crackTime,
	}

	metDecoded.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.MessagesDecoded++
	if s.cfg.Filter != nil && !s.cfg.Filter.Match(capt) {
		s.stats.FilteredOut++
		return
	}
	s.captures = append(s.captures, capt)
}

// Reset returns the rig to its just-built state — in-flight session
// buffers, captures, counters and both Kc caches are dropped; tuned
// receivers and the cracker backend are kept. The campaign engine
// resets a rig after every shard before handing it to the next shard
// of any scenario, so no cracked key or capture leaks between shards or
// radio environments.
//
// Reset empties the rig in place: the session table, both Kc caches
// and the capture slice keep their capacity, so a rig cycled shard
// after shard stops allocating once it has seen its largest shard.
// Every entry and capture is cleared before the storage is reused, so
// no session, key or capture of an earlier trace stays reachable from
// them, and slices returned by Captures or DrainSessionIDs are copies
// that a later Reset does not touch. The content-keyed TPDU memo, the
// session freelist and the FeedBatch scratch (all emptied or
// content-addressed) are kept.
func (s *Sniffer) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.sessions)
	clear(s.captures)
	s.captures = s.captures[:0]
	s.stats = Stats{}
	clear(s.kcCache)
	clear(s.subKc)
}

// SetCrackObserver installs (or, with nil, removes) an extra histogram
// that receives every batched-crack duration alongside the registry's
// sniffer_crack_batch_seconds series. The campaign engine points it at
// the checking-out run's local crack histogram and clears it on rig
// release, which is what keeps per-run crack timings correct when
// scenarios overlap on one process.
func (s *Sniffer) SetCrackObserver(h *obs.Histogram) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crackObs = h
}

// Captures returns a copy of the recorded (filter-matching) messages,
// leaving them recorded.
func (s *Sniffer) Captures() []Capture {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Capture(nil), s.captures...)
}

// DrainSessionIDs moves the recorded (filter-matching) messages out of
// the rig as their session IDs, appended to dst in capture order, and
// returns the extended slice: the rig's capture list is left empty,
// its capacity kept, while its Kc caches and Stats are untouched.
// Draining after each chunk of a trace bounds the rig's capture list by
// a chunk, and a caller that only attributes captures to sessions keeps
// four bytes per capture; passing a recycled dst[:0] drains without
// allocating once dst has grown to a chunk's captures.
func (s *Sniffer) DrainSessionIDs(dst []uint32) []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.captures {
		dst = append(dst, s.captures[i].SessionID)
	}
	clear(s.captures)
	s.captures = s.captures[:0]
	return dst
}

// Stats returns a snapshot of run counters.
func (s *Sniffer) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
