package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/campaign"
	"github.com/actfort/actfort/internal/gsmcodec"
	"github.com/actfort/actfort/internal/obs"
	"github.com/actfort/actfort/internal/population"
	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/sniffer"
	"github.com/actfort/actfort/internal/socialdb"
	"github.com/actfort/actfort/internal/telecom"
)

// The layer replay drives, shard by shard and in the engine's order,
// the public calls a campaign run makes into each layer — Shard,
// AppendLeakRecords, AddAll, the session gather, EncodeSMSBurstsInto,
// FeedBatch and LookupBytes — with a span around each, so per-layer
// costs are measured per unit of work without instrumenting the engine.
// Its counts must equal the engine's Summary for the same seed and
// scenario: equal counts prove it timed the same work. Only the chain
// reaction (campaign's unexported closure) is not replayed.

// replayCounts are the Summary counters the replay reproduces.
type replayCounts struct {
	Targeted, Covered, Sessions, A50Sessions, A53Sessions int64
	Intercepted, DossierHits, LeakRecords                 int64
	Sniffer                                               sniffer.Stats
}

func (c *replayCounts) add(o replayCounts) {
	c.Targeted += o.Targeted
	c.Covered += o.Covered
	c.Sessions += o.Sessions
	c.A50Sessions += o.A50Sessions
	c.A53Sessions += o.A53Sessions
	c.Intercepted += o.Intercepted
	c.DossierHits += o.DossierHits
	c.LeakRecords += o.LeakRecords
	c.Sniffer.Add(o.Sniffer)
}

// countsOf extracts the replayed counters from an engine Summary.
func countsOf(s *campaign.Summary) replayCounts {
	return replayCounts{
		Targeted: s.Targeted, Covered: s.Covered, Sessions: s.Sessions,
		A50Sessions: s.A50Sessions, A53Sessions: s.A53Sessions,
		Intercepted: s.Intercepted, DossierHits: s.DossierHits, LeakRecords: s.LeakRecords,
		Sniffer: s.Sniffer,
	}
}

// replayer replays scenarios over one population with one leak
// database: like the engine, it harvests each shard once, on the first
// scenario that reaches it.
type replayer struct {
	pop       *population.Population
	cracker   a51.Cracker
	space     a51.KeySpace
	db        *socialdb.DB
	harvested []bool
	workers   int
	tr        *tracer
	trace     string
}

// newReplayer prepares a replay over eng's population with eng's shared
// cracker. The engine's key space is unexported; the table backend
// reports it.
func newReplayer(pop *population.Population, eng *campaign.Engine, workers int, tr *tracer, trace string) (*replayer, error) {
	spaced, ok := eng.Cracker().(interface{ Space() a51.KeySpace })
	if !ok {
		return nil, fmt.Errorf("replay: cracker %s does not report its key space", eng.Cracker().Name())
	}
	return &replayer{
		pop: pop, cracker: eng.Cracker(), space: spaced.Space(), db: socialdb.New(),
		harvested: make([]bool, pop.NumShards()), workers: workers, tr: tr, trace: trace,
	}, nil
}

// otpDeliver is the one OTP TPDU every synthesized session carries, as
// in the engine.
var otpDeliver = gsmcodec.Deliver{
	Originator: "ActFort",
	Timestamp:  time.Date(2021, 4, 19, 12, 0, 0, 0, time.UTC),
	Text:       "Code 845512",
}

// baseARFCN is the engine's first campaign channel.
const baseARFCN = 512

// rand16 expands one draw into a RAND challenge, as the engine does.
func rand16(h uint64) [16]byte {
	var out [16]byte
	binary.BigEndian.PutUint64(out[:8], h)
	binary.BigEndian.PutUint64(out[8:], population.Mix(h, 0x52414E44))
	return out
}

// replayScenario is a normalized scenario's draw parameters.
type replayScenario struct {
	mix                 telecom.CellMix
	receivers, channels uint64
	sessions            int
	reauthSkip          float64
	perSession          uint32
}

// run replays sc over every shard and returns its counts.
func (rp *replayer) run(sc campaign.Scenario, parent int) (replayCounts, error) {
	norm, err := sc.Normalized()
	if err != nil {
		return replayCounts{}, err
	}
	if norm.Segment != (campaign.VictimSegment{}) {
		return replayCounts{}, fmt.Errorf("replay: scenario %s: victim segments are not replayed", norm.Name)
	}
	raw, err := otpDeliver.Marshal()
	if err != nil {
		return replayCounts{}, err
	}
	rs := replayScenario{
		mix:        telecom.CellMix{A50: norm.Radio.A50Fraction, A53: norm.Radio.A53Fraction},
		receivers:  uint64(norm.Budget.Receivers),
		channels:   uint64(norm.Budget.CellChannels),
		sessions:   norm.Radio.OTPSessions,
		reauthSkip: norm.Radio.ReauthSkip,
		perSession: uint32(telecom.SessionBurstCount(len(raw))),
	}
	sp := rp.tr.begin(rp.trace, "replay "+norm.Name, parent)
	shards := make(chan int)
	var (
		mu    sync.Mutex
		total replayCounts
		wg    sync.WaitGroup
	)
	for range rp.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := rp.newWorker()
			defer w.buf.Release()
			var c replayCounts
			for i := range shards {
				w.shard(i, rs, &c, sp)
			}
			mu.Lock()
			total.add(c)
			mu.Unlock()
		}()
	}
	for i := range rp.pop.NumShards() {
		shards <- i
	}
	close(shards)
	wg.Wait()
	rp.tr.end(sp, nil)
	return total, nil
}

// replayWorker is one worker's rig and scratch, reused shard to shard.
type replayWorker struct {
	rp      *replayer
	rig     *sniffer.Sniffer
	crack   *obs.Histogram
	buf     *telecom.BurstBuffer
	durable slab.Slab[byte] // leak-record strings: the DB keeps them
	strs    slab.Slab[byte] // per-shard IMSI strings the rig caches
	recs    []socialdb.Record
	batch   []telecom.SMSSession
	tmp     []byte
	phones  []byte
	ends    []int
	covered []bool
	caught  []bool
}

func (rp *replayer) newWorker() *replayWorker {
	net := telecom.NewNetwork(telecom.Config{KeySpace: rp.space, Seed: rp.pop.Seed()})
	w := &replayWorker{
		rp:    rp,
		rig:   sniffer.New(net, sniffer.Config{Cracker: rp.cracker}),
		crack: obs.NewLocalHistogram(obs.LatencyBuckets),
		buf:   telecom.AcquireBurstBuffer(),
	}
	w.rig.SetCrackObserver(w.crack)
	return w
}

// shard replays shard i, mirroring the engine's attackShard.
func (w *replayWorker) shard(i int, rs replayScenario, c *replayCounts, parent int) {
	rp, tr, trace := w.rp, w.rp.tr, w.rp.trace
	pop := rp.pop

	sp := tr.begin(trace, "population.Population.Shard", parent)
	sh := pop.Shard(i)
	n := len(sh.Subscribers)
	tr.end(sp, map[string]float64{"subs": float64(n)})

	if !rp.harvested[i] {
		sp = tr.begin(trace, "population.Population.AppendLeakRecords", parent)
		w.recs, w.tmp = pop.AppendLeakRecords(w.recs[:0], sh, &w.durable, w.tmp)
		tr.end(sp, map[string]float64{"recs": float64(len(w.recs))})
		sp = tr.begin(trace, "socialdb.DB.AddAll", parent)
		rp.db.AddAll(w.recs)
		tr.end(sp, map[string]float64{"recs": float64(len(w.recs))})
		rp.harvested[i] = true
	}
	c.LeakRecords += int64(sh.LeakCount)

	sp = tr.begin(trace, "replay.gather", parent)
	w.strs.Reset()
	w.covered = resize(w.covered, n)
	w.caught = resize(w.caught, n)
	seed := uint64(pop.Seed())
	frame := uint32(0)
	batch := w.batch[:0]
	for li := range sh.Subscribers {
		sub := &sh.Subscribers[li]
		c.Targeted++
		idx := uint64(sub.Index)
		channel := population.Mix(seed, population.TagCoverage, idx) % rs.channels
		if channel >= rs.receivers {
			continue
		}
		w.covered[li] = true
		c.Covered++
		w.tmp = population.AppendIMSI(w.tmp[:0], sub.Index)
		imsi := slab.StringOf(&w.strs, w.tmp)
		mode := rs.mix.Mode(population.Unit(population.Mix(seed, population.TagCipher, idx)))
		epoch := uint64(0)
		var rnd [16]byte
		var kc uint64
		for s := 0; s < rs.sessions; s++ {
			fresh := s == 0
			if s > 0 && population.Unit(population.Mix(seed, population.TagReauth, idx, uint64(s))) >= rs.reauthSkip {
				epoch++
				fresh = true
			}
			if fresh {
				rnd = rand16(population.Mix(seed, population.TagRAND, idx, epoch))
				kc = telecom.SessionKey(pop.Seed(), imsi, rnd, rp.space)
			}
			start := telecom.NextPagingStart(frame)
			batch = append(batch, telecom.SMSSession{
				ARFCN:      baseARFCN + int(channel),
				CellID:     "campaign-cell",
				SessionID:  uint32(li*rs.sessions + s),
				StartFrame: start,
				Cipher:     mode,
				Kc:         kc,
				IMSI:       imsi,
				RAND:       rnd,
				Deliver:    otpDeliver,
			})
			frame = start + rs.perSession
			c.Sessions++
			switch mode {
			case telecom.CipherA50:
				c.A50Sessions++
			case telecom.CipherA53:
				c.A53Sessions++
			}
		}
	}
	w.batch = batch
	tr.end(sp, map[string]float64{"sessions": float64(len(batch))})

	if len(batch) > 0 {
		sp = tr.begin(trace, "telecom.EncodeSMSBurstsInto", parent)
		flat, err := telecom.EncodeSMSBurstsInto(batch, w.buf)
		if err != nil {
			panic(fmt.Sprintf("replay: encode of the shared OTP TPDU failed: %v", err)) // marshaled above
		}
		tr.end(sp, map[string]float64{"bursts": float64(len(flat))})
		crack0 := w.crack.Sum()
		sp = tr.begin(trace, "sniffer.Sniffer.FeedBatch", parent)
		w.rig.FeedBatch(flat)
		tr.end(sp, map[string]float64{"bursts": float64(len(flat)), "crack_ns": (w.crack.Sum() - crack0) * 1e9})
	}

	for _, capt := range w.rig.Captures() {
		w.caught[int(capt.SessionID)/rs.sessions] = true
	}
	c.Sniffer.Add(w.rig.Stats())
	w.rig.Reset()

	// Derive the intercepted victims' phones first so the span times the
	// store alone.
	w.phones, w.ends = w.phones[:0], w.ends[:0]
	for li := range sh.Subscribers {
		if w.covered[li] && w.caught[li] {
			w.phones = sh.Subscribers[li].Ref.AppendPhone(w.phones)
			w.ends = append(w.ends, len(w.phones))
		}
	}
	sp = tr.begin(trace, "socialdb.DB.LookupBytes", parent)
	hits, from := 0, 0
	for _, to := range w.ends {
		if _, err := rp.db.LookupBytes(w.phones[from:to]); err == nil {
			hits++
		}
		from = to
	}
	tr.end(sp, map[string]float64{"lookups": float64(len(w.ends)), "hits": float64(hits)})
	c.Intercepted += int64(len(w.ends))
	c.DossierHits += int64(hits)

	sp = tr.begin(trace, "population.Shard.Release", parent)
	sh.Release()
	tr.end(sp, map[string]float64{"subs": float64(n)})
}

// resize returns a cleared bool slice of length n, reusing b.
func resize(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// replayAll replays every scenario and checks each one's counts against
// the engine's Summary for it. It returns the sniffer counters summed
// over the scenarios and the check's failures.
func (rp *replayer) replayAll(scs []campaign.Scenario, want []*campaign.Summary, parent int) (sniffer.Stats, []string, error) {
	var (
		st  sniffer.Stats
		bad []string
	)
	for i, sc := range scs {
		got, err := rp.run(sc, parent)
		if err != nil {
			return st, nil, err
		}
		if exp := countsOf(want[i]); got != exp {
			bad = append(bad, fmt.Sprintf("replay of %s: counts %+v, engine %+v", sc.Name, got, exp))
		}
		st.Add(got.Sniffer)
	}
	return st, bad, nil
}

// replayMetrics derives the replay's per-layer metrics from its spans
// and its summed sniffer counters.
func replayMetrics(tr *tracer, st sniffer.Stats, m map[string]float64) {
	m["sniffer.cracks"] = float64(st.CracksAttempted)
	m["sniffer.decoded_ratio"] = ratio(float64(st.MessagesDecoded), float64(st.SessionsComplete))
	m["sniffer.kc_reuse_ratio"] = ratio(float64(st.KcReuseHits), float64(st.KcReuseHits+st.KcReuseMisses))
	shardNs, shardA := tr.total("population.Population.Shard")
	releaseNs, _ := tr.total("population.Shard.Release")
	leakNs, leakA := tr.total("population.Population.AppendLeakRecords")
	addNs, addA := tr.total("socialdb.DB.AddAll")
	lookNs, lookA := tr.total("socialdb.DB.LookupBytes")
	encNs, encA := tr.total("telecom.EncodeSMSBurstsInto")
	feedNs, feedA := tr.total("sniffer.Sniffer.FeedBatch")
	m["population.shard_ns_per_sub"] = ratio(shardNs+releaseNs, shardA["subs"])
	m["population.leakrec_ns_per_rec"] = ratio(leakNs, leakA["recs"])
	m["socialdb.addall_ns_per_rec"] = ratio(addNs, addA["recs"])
	m["socialdb.lookup_ns"] = ratio(lookNs, lookA["lookups"])
	m["socialdb.hit_ratio"] = ratio(lookA["hits"], lookA["lookups"])
	m["telecom.encode_ns_per_burst"] = ratio(encNs, encA["bursts"])
	m["telecom.bursts"] = encA["bursts"]
	m["sniffer.feed_self_ns_per_burst"] = ratio(feedNs-feedA["crack_ns"], feedA["bursts"])
	m["sniffer.crack_ns_per_crack"] = ratio(feedA["crack_ns"], float64(st.CracksAttempted))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
