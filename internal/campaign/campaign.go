// Package campaign is the population-scale attack engine: it runs the
// paper's chain-reaction attack not against one victim but across a
// synthetic subscriber population of millions (internal/population),
// quantifying how far one sniffed SMS OTP "goes nuclear" through the
// account ecosystem at operator scale — and, through declarative
// Scenarios and the sweep driver, how much fortification shrinks that
// mass.
//
// Architecture (the template every scaling subsystem follows):
//
//   - the population is sharded; a bounded worker pool streams shards,
//     so subscriber state (personas, enrollments) is O(shard), and radio
//     traffic is O(radioChunk): a shard's radio stage runs in passes of
//     1,024 subscribers. A cold run holds nothing
//     population-proportional; a warm engine holds the radio memo and
//     the resident closure inputs below;
//   - every worker synthesizes each victim's OTP radio sessions with
//     the same burst encoder the live Network uses and feeds them, one
//     chunk's trace per call, to the shard slot's passive sniffer rig —
//     batched sniffer sessions;
//   - all rigs share ONE A5/1 cracker backend, so a single precomputed
//     TMTO table is amortized across the entire population AND across
//     every scenario of a sweep; the rigs themselves live in the
//     engine's Workers shard slots and are reused, reset, by every shard
//     of every scenario — a rig holds no radio-environment state;
//   - the attacker's join of a victim's phone against the leaked
//     databases (§V.A.1) is the population's Dossier of that victim, a
//     pure function of its leak draws: phones are unique per
//     subscriber, so the join finds only the victim's own record and
//     the engine keeps no leak database;
//   - each shard's radio stage (synth → encrypt → feed → crack) is
//     memoized per (radio environment, budget, segment): policy and
//     platform never reach it, so a fortification scenario after its
//     baseline runs only the chain reaction;
//   - a shard attacked a second time keeps its closure inputs resident,
//     lane-major (per 64 subscribers, a lane word per catalog service
//     and per dossier field, zero words left out; about 20 B per
//     subscriber), so from then on a memo hit skips shard generation
//     and the dossier draws too;
//   - chain reactions are evaluated 256 intercepted victims at a time,
//     one victim per bit lane of a four-word strategy.Word, packed into
//     blocks by compressing each 64-subscriber group's lane words to its
//     intercepted lanes and appending them at the block's fill offset,
//     against a precompiled Transformation Dependency Graph plan (need
//     lists and path classes, one layer per depth, no per-victim graph
//     builds); each scenario compiles its own plan from its
//     policy-fortified catalog, cached by (policy, platform);
//   - a run is the unit of one plan: a sweep runs the scenarios that
//     share a plan as the members of one run, since a victim's chain
//     reaction depends only on the plan and the population. Each shard
//     takes every member's radio outcome, packs blocks over the union of
//     the members' intercepted victims, each member's interception word
//     riding along as one more entry, solves each block once and folds
//     it into every member's partial summary through that member's
//     lanes;
//   - the worker that attacked a shard folds its per-member partial
//     summaries into the run's aggregates under the run's lock;
//     summaries render through internal/report.
//
// Each layer has one production path: 64-lane batch radio synthesis,
// the 64-lane batched TMTO chain replay, the 256-lane chain-reaction
// closure and lazily derived subscriber attributes. Their naive twins —
// per-session encoding, per-session chain replay, the one-victim scalar
// closure, eagerly materialized personas — live on as test-only
// references, and fixed-seed golden Summaries pin the results.
package campaign

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/countermeasure"
	"github.com/actfort/actfort/internal/faultinject"
	"github.com/actfort/actfort/internal/gsmcodec"
	"github.com/actfort/actfort/internal/obs"
	"github.com/actfort/actfort/internal/population"
	"github.com/actfort/actfort/internal/slab"
	"github.com/actfort/actfort/internal/sniffer"
	"github.com/actfort/actfort/internal/strategy"
	"github.com/actfort/actfort/internal/telecom"
)

// Config parameterizes an Engine: the shared resources every scenario
// of a sweep reuses. Per-run knobs (countermeasure policy, radio
// environment, attacker budget, victim cohort) live in Scenario.
type Config struct {
	// Population is the subscriber base to attack (required).
	Population *population.Population
	// Workers bounds the shard worker pool (0 = GOMAXPROCS).
	Workers int
	// Backend selects the shared A5/1 cracker ("table" when empty; see
	// a51.NewCracker). Cracker overrides it when non-nil.
	Backend string
	Cracker a51.Cracker
	// KeyBits is the A5/1 session-key space (0 = 12, as the case-study
	// scenarios use).
	KeyBits int
	// ScenarioProgress, when non-nil, receives (scenario, done, total)
	// after every merged shard of every run. Callbacks of concurrent
	// scenarios may arrive concurrently; the callee synchronizes.
	ScenarioProgress func(scenario string, done, total int)
	// SweepParallel bounds how many runs RunSweep keeps in flight at
	// once (0 or 1 = sequential, the default). A run carries the sweep's
	// scenarios that share one plan (policy and platform), so this counts
	// plans, not scenarios. However many runs overlap, their shard work
	// shares the one Workers-bounded budget, so parallelism overlaps a
	// run's tail (aggregation, stragglers) with the next run's start
	// instead of oversubscribing the machine.
	SweepParallel int

	// Checkpoint, when non-nil, makes runs durable: every completed
	// shard is journaled, periodic snapshots fold the journal away, and
	// a rerun over the same directory resumes from the last journaled
	// shard instead of starting over. Nil keeps runs in-memory only.
	Checkpoint *Checkpoint
	// ShardLo and ShardHi bound the contiguous shard range
	// [ShardLo, ShardHi) this engine owns — the multi-process split:
	// each process takes a disjoint range and its own checkpoint
	// directory, and MergePartials combines the results. Both zero =
	// the whole population.
	ShardLo, ShardHi int
	// MaxShardAttempts bounds how many times a failing shard is
	// attempted before quarantine (0 = 3). Only injected or I/O shard
	// failures retry; shard computation itself is deterministic.
	MaxShardAttempts int
	// RetryBackoff is the base delay before a shard retry, doubling per
	// attempt and capped at RetryBackoffMax (0 = no delay).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// Fault injects deterministic crashes and shard failures into the
	// run — the recovery-path test harness (nil = no faults).
	Fault *faultinject.Injector

	// Trace, when non-nil, receives the shard-lifecycle event stream:
	// shard_start/done/retry/quarantine per attempt, journal and
	// snapshot boundaries, run start/done. Events never affect results;
	// a nil Trace costs nothing (every TraceWriter method is nil-safe).
	Trace *obs.TraceWriter
}

// Engine is the resident core: the shared resources every scenario —
// sequential or concurrent — draws on. Everything here is either
// immutable after New (population, cracker table, key space) or
// guarded for concurrent use (plan cache, shard slots, radio memo,
// resident closure inputs), so RunScenario is safe to call from
// multiple goroutines at once; all per-run state lives in the run and
// member types.
// Build with New, execute one scenario with RunScenario or a
// comparative list with RunSweep.
type Engine struct {
	cfg     Config
	space   a51.KeySpace
	cracker a51.Cracker

	// plans caches compiled attack plans by (policy, platform): a sweep
	// comparing radio environments under one policy compiles once.
	planMu sync.Mutex
	plans  map[planKey]*attackPlan

	// slots is the shard budget and the radio stage's memory in one:
	// cfg.Workers slots, each nil until its first checkout builds it.
	// Every worker of every in-flight run takes a slot per shard, so
	// overlapping runs together attack at most cfg.Workers shards at a
	// time and RigsBuilt ≤ cfg.Workers by construction, whatever radio
	// environments they mix. A rig holds no radio-environment state — it
	// uses its network only for the key space and is never tuned — so
	// after release any slot serves any run. shell is that network,
	// shared by every rig; rigsBuilt counts constructions.
	slots     chan *slot
	shell     *telecom.Network
	rigsBuilt atomic.Int64
	// otpBursts is the burst count of otpDeliver, the one OTP TPDU every
	// synthesized session carries.
	otpBursts uint32

	// memo keeps each owned shard's radio stage per radio environment,
	// so a run whose (radio, budget, segment) an earlier run already
	// attacked skips straight to the chain reaction. Bounded by
	// radioMemoMax environments, least recently used evicted.
	memo radioMemo
	// resident keeps each owned shard's closure inputs, indexed by
	// shard − ShardLo and filled on the shard's first memo hit, so
	// later hits skip shard generation. residentBytes is their total
	// size.
	resident      []atomic.Pointer[closureIn]
	residentBytes atomic.Int64
}

// planKey identifies one compiled plan.
type planKey struct {
	policy   string
	platform string
}

// planKeyOf is a normalized scenario's plan key.
func planKeyOf(sc Scenario) planKey {
	key := planKey{policy: sc.Policy, platform: sc.Platform}
	if key.policy == "" {
		key.policy = "none"
	}
	return key
}

// New validates the shared resources and builds the cracker backend
// (including the one-off TMTO table precomputation for "table").
func New(cfg Config) (*Engine, error) {
	if cfg.Population == nil {
		return nil, fmt.Errorf("campaign: nil population")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.KeyBits <= 0 {
		cfg.KeyBits = 12
	}
	if cfg.MaxShardAttempts <= 0 {
		cfg.MaxShardAttempts = 3
	}
	if n := len(cfg.Population.Services()); n > maxServices {
		return nil, fmt.Errorf("campaign: %d catalog services, at most %d", n, maxServices)
	}
	num := cfg.Population.NumShards()
	if cfg.ShardLo == 0 && cfg.ShardHi == 0 {
		cfg.ShardHi = num
	}
	if cfg.ShardLo < 0 || cfg.ShardHi > num || cfg.ShardLo >= cfg.ShardHi {
		return nil, fmt.Errorf("campaign: shard range [%d, %d) invalid for %d shards",
			cfg.ShardLo, cfg.ShardHi, num)
	}
	e := &Engine{
		cfg:   cfg,
		space: a51.KeySpace{Base: 0xC118000000000000, Bits: cfg.KeyBits},
		plans: make(map[planKey]*attackPlan),
		slots: make(chan *slot, cfg.Workers),
		memo:  radioMemo{keys: make(map[radioKey]*radioShards)},
	}
	e.resident = make([]atomic.Pointer[closureIn], cfg.ShardHi-cfg.ShardLo)
	for range cfg.Workers {
		e.slots <- nil
	}
	e.shell = telecom.NewNetwork(telecom.Config{KeySpace: e.space, Seed: cfg.Population.Seed()})
	raw, err := otpDeliver.Marshal()
	if err != nil {
		return nil, fmt.Errorf("campaign: OTP TPDU: %w", err)
	}
	e.otpBursts = uint32(telecom.SessionBurstCount(len(raw)))
	e.cracker = cfg.Cracker
	if e.cracker == nil {
		backend := cfg.Backend
		if backend == "" {
			backend = "table"
		}
		if backend == "table" {
			// The campaign's table is tuned for lookup throughput:
			// short chains cost a little more memory (still megabytes
			// at simulation key sizes) and cut the per-session replay
			// work several-fold — the right trade when one table is
			// amortized over millions of cracks. It covers exactly the
			// CCCH paging frame classes the 51×26 COUNT schedule can
			// put a known-plaintext burst on.
			e.cracker, err = a51.BuildTable(e.space, a51.TableConfig{
				Frames:   telecom.PagingFrames(),
				ChainLen: 2,
			})
		} else {
			e.cracker, err = a51.NewCracker(backend, e.space)
		}
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Cracker exposes the shared backend (benchmarks and the CLI report
// its name).
func (e *Engine) Cracker() a51.Cracker { return e.cracker }

// RigsBuilt reports how many sniffer rigs the engine has constructed:
// at most Workers over the engine's lifetime, one per shard slot.
func (e *Engine) RigsBuilt() int64 { return e.rigsBuilt.Load() }

// plan returns the compiled plan for a normalized scenario, applying
// its countermeasure policy to the catalog first.
func (e *Engine) plan(sc Scenario) (*attackPlan, error) {
	key := planKeyOf(sc)
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if p, ok := e.plans[key]; ok {
		return p, nil
	}
	pol, err := countermeasure.PolicyByName(sc.Policy)
	if err != nil {
		return nil, err
	}
	cat, err := pol.Apply(e.cfg.Population.Catalog())
	if err != nil {
		return nil, fmt.Errorf("campaign: apply policy %s: %w", pol.Name, err)
	}
	p, err := buildPlan(cat, sc.platforms())
	if err != nil {
		return nil, err
	}
	e.plans[key] = p
	return p, nil
}

// slot is one shard slot and the one owner of the working memory of
// the radio stage run on it: the sniffer rig, the radio session buffer
// and the burst buffer a pass's encoded trace lives in, the session IDs
// of the captures drained from the rig, the IMSI scratch and string
// arena, and the closure inputs of the shard last generated on it. The
// radio buffers hold one pass of radioChunk subscribers, not a shard.
// All of it is recycled shard over shard by every run, so a
// steady-state shard attack allocates nothing population-proportional
// beyond its radio-memo entry and, on a shard's second attack, its
// resident closure inputs; the radio buffers are dropped while no
// radio stage runs (drop).
type slot struct {
	rig    *sniffer.Sniffer
	bursts *telecom.BurstBuffer
	radio  []telecom.SMSSession
	caught []uint32
	phone  []byte
	strs   slab.Slab[byte]
	in     closureIn
}

// checkout takes a shard slot, blocking until one is free or ctx is
// done (nil), and builds it on its first use.
func (e *Engine) checkout(ctx context.Context) *slot {
	var sl *slot
	select {
	case sl = <-e.slots:
	case <-ctx.Done():
		return nil
	}
	if sl == nil {
		e.rigsBuilt.Add(1)
		metRigsBuilt.Inc()
		sl = &slot{rig: sniffer.New(e.shell, sniffer.Config{Cracker: e.cracker})}
	} else {
		metRigsReused.Inc()
	}
	return sl
}

// release resets a checked-out slot and returns it for the next shard
// of any run.
func (e *Engine) release(sl *slot) {
	sl.reset()
	e.slots <- sl
}

// reset readies the slot for another radio stage: the rig's caches are
// cleared in place and its crack observer detached.
func (sl *slot) reset() {
	sl.rig.Reset()
	sl.rig.SetCrackObserver(nil)
}

// drop frees the slot's radio buffers. A shard whose every member hit
// the radio memo ran no radio stage: its runs are warm, and warm runs
// need none, while cold runs keep them shard over shard.
func (sl *slot) drop() {
	if sl.bursts != nil {
		sl.bursts.Release()
		sl.bursts = nil
	}
	sl.radio, sl.caught = nil, nil
}

// RunScenario executes one scenario: attack every owned shard through
// the worker pool, folding partial summaries into one aggregate. The
// zero Scenario is the paper's baseline environment (no policy,
// measured radio mix, full-coverage 16-receiver fleet, whole
// population). The returned Summary is deterministic
// for a fixed config apart from Duration/VictimsPerSec — including
// across kill-and-resume boundaries when a Checkpoint is configured.
// RunScenario is safe to call concurrently: each call builds its own
// run over the engine's shared core, and overlapping calls share the
// Workers-bounded shard budget.
func (e *Engine) RunScenario(ctx context.Context, sc Scenario) (*Summary, error) {
	norm, err := sc.normalize(0)
	if err != nil {
		return nil, err
	}
	dir := ""
	if e.cfg.Checkpoint != nil {
		dir = e.cfg.Checkpoint.Dir
	}
	sums, errs := e.runPlan(ctx, []Scenario{norm}, []string{dir})
	return sums[0], errs[0]
}

// run is the per-run half of the engine split: one compiled plan
// (shared and read-only, cached on the engine) and its members, the
// normalized scenarios that share it. A shard's closure half depends
// only on the plan and the population, so the run solves each block of
// the members' intercepted victims once and folds it into every
// member's partial summary. The Engine holds only shared state; a run
// is built per RunScenario call or per plan group of a sweep and dies
// with it, which is what makes overlapping runs safe.
type run struct {
	e       *Engine
	plan    *attackPlan
	members []*member
	// mu serializes the workers' folds: the members' aggregates, merged
	// counts, errors and journals, and the run's live and stopped.
	mu sync.Mutex
	// live counts the members not dropped; stopped is set when an
	// injected crash, or the last member dropped, stopped the run.
	live    int
	stopped bool
}

// member is what one scenario of a run owns alone: the normalized
// scenario and its runtime view, its radio-memo entries, its checkpoint
// handle, its phase histograms and its aggregate.
type member struct {
	norm   Scenario
	rt     *runtimeScenario
	radio  *radioShards
	ck     *ckptRun
	phases *phaseSet
	// sum is the member's aggregate, seeded by its checkpoint; subs0 and
	// skip0 are what the seed held, seedShards the shards it covered and
	// merged the shards merged since.
	sum                *Summary
	subs0, skip0       int64
	seedShards, merged int
	// err is the member's own failure during the attack, a journal
	// error, set under the run's lock; dropped, set with it, stops the
	// workers attacking shards for the member.
	err     error
	dropped atomic.Bool
}

// maxRunMembers bounds the scenarios one run carries; a sweep splits a
// larger plan group into several runs. It keeps a run's per-shard work
// and scratch bounded by a constant, and member indices within uint16.
const maxRunMembers = 64

// runPlan runs normalized scenarios that share one plan key as one run,
// scenario k journaling to dirs[k] ("" = no checkpoint), and returns
// each scenario's Summary or error. A scenario whose set-up fails — its
// plan, runtime view or checkpoint — or whose journal fails gets that
// error and the run goes on without it. A canceled context, or an
// injected crash in one member's journal (process death), stops the
// run: the crashed member gets the crash and the others the
// cancellation.
func (e *Engine) runPlan(ctx context.Context, norms []Scenario, dirs []string) ([]*Summary, []error) {
	start := time.Now()
	sums, errs := make([]*Summary, len(norms)), make([]error, len(norms))
	for _, norm := range norms {
		e.cfg.Trace.Emit(obs.TraceEvent{Event: "run_start", Shard: -1, Detail: norm.Name})
	}
	r := &run{e: e}
	var err error
	if r.plan, err = e.plan(norms[0]); err != nil {
		for k := range errs {
			errs[k] = err
		}
		return sums, errs
	}
	at := make([]int, 0, len(norms)) // each member's index in norms
	for k, norm := range norms {
		m, err := e.newMember(norm, dirs[k])
		if err != nil {
			errs[k] = err
			continue
		}
		if m.ck != nil {
			defer m.ck.j.Close()
		}
		r.members = append(r.members, m)
		at = append(at, k)
	}
	if len(r.members) == 0 {
		return sums, errs
	}
	err = r.attack(ctx)
	d := time.Since(start)
	for j, m := range r.members {
		switch {
		case m.err != nil:
			errs[at[j]] = m.err
		case err != nil:
			errs[at[j]] = err
		default:
			sums[at[j]], errs[at[j]] = e.finish(m, d)
		}
	}
	return sums, errs
}

// newMember builds normalized scenario norm's member state over the
// engine's shared core: its runtime view, its radio-memo entries and,
// when dir is set, its opened (or resumed) checkpoint.
func (e *Engine) newMember(norm Scenario, dir string) (*member, error) {
	m := &member{norm: norm, phases: newPhaseSet()}
	var err error
	if m.rt, err = e.newRuntime(norm); err != nil {
		return nil, err
	}
	m.radio = e.memo.shards(radioKey{radio: norm.Radio, budget: norm.Budget, segment: norm.Segment},
		e.cfg.ShardHi-e.cfg.ShardLo)
	m.sum = newSummary(len(e.cfg.Population.Services()))
	if dir != "" {
		if m.ck, err = e.openCheckpoint(dir, norm); err != nil {
			return nil, err
		}
		m.sum = m.ck.seed
		for _, d := range m.ck.done {
			if d {
				m.seedShards++
			}
		}
	}
	m.subs0, m.skip0 = m.sum.Subscribers, m.sum.SubscribersSkipped
	return m, nil
}

// finish completes member m's Summary after a run of wall clock d:
// identity, coverage, throughput and phase timings, written to its
// checkpoint as the final result.
func (e *Engine) finish(m *member, d time.Duration) (*Summary, error) {
	sum := m.sum
	sum.Scenario = m.norm.Name
	sum.Policy = m.norm.Policy
	sum.Backend = e.cracker.Name()
	sum.Workers = e.cfg.Workers
	sum.recomputeCoverage()
	sum.Duration = d
	// Throughput is the cumulative rate: all subscribers ever processed
	// over all wall clock ever spent, across every process that worked
	// on this checkpoint directory. The pre-telemetry code divided the
	// full (resumed + new) victim count by this process's clock alone,
	// overstating resumed runs' rates by the resumed fraction.
	sum.ActiveDuration = sum.Duration
	sum.ResumeVictimsPerSec = 0
	if m.ck != nil {
		sum.ActiveDuration = m.ck.activePrior + sum.Duration
		if m.ck.resumed {
			if secs := sum.Duration.Seconds(); secs > 0 {
				sum.ResumeVictimsPerSec = float64(sum.Subscribers-m.ck.subsPrior) / secs
			}
		}
	}
	if secs := sum.ActiveDuration.Seconds(); secs > 0 {
		sum.VictimsPerSec = float64(sum.Subscribers) / secs
	}
	sum.PhaseTimings = m.phases.timings()
	if m.ck != nil {
		payload, err := json.Marshal(sum)
		if err != nil {
			return nil, fmt.Errorf("campaign: encode final summary: %w", err)
		}
		if err := m.ck.j.WriteResult(payload); err != nil {
			return nil, err
		}
	}
	e.cfg.Trace.Emit(obs.TraceEvent{Event: "run_done", Shard: -1, Subscribers: sum.Subscribers})
	e.cfg.Trace.Flush()
	return sum, nil
}

// runtimeScenario is a normalized scenario with its draw helpers
// precomputed: the cell mix, the budget arithmetic, and the victim
// segment compiled to a service bitset.
type runtimeScenario struct {
	sc         Scenario
	mix        telecom.CellMix
	receivers  uint64
	channels   uint64
	sessions   int
	reauthSkip float64
	// domainMask is nil for "everyone", else the catalog services of
	// the segment's domain as a bitset matching Subscriber.Enrolled.
	domainMask population.ServiceSet
}

// newRuntime compiles a normalized scenario's runtime view.
func (e *Engine) newRuntime(sc Scenario) (*runtimeScenario, error) {
	rt := &runtimeScenario{
		sc:         sc,
		mix:        sc.Radio.cellMix(),
		receivers:  uint64(sc.Budget.Receivers),
		channels:   uint64(sc.Budget.CellChannels),
		sessions:   sc.Radio.OTPSessions,
		reauthSkip: sc.Radio.ReauthSkip,
	}
	if sc.Segment.Domain != "" {
		dom, err := domainByName(sc.Segment.Domain)
		if err != nil {
			return nil, err
		}
		cat := e.cfg.Population.Catalog()
		rt.domainMask = make(population.ServiceSet, (cat.Len()+63)/64)
		for i, svc := range cat.Services() {
			if svc.Domain == dom {
				rt.domainMask[i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	return rt, nil
}

// targets reports whether the scenario's victim segment includes sub.
func (rt *runtimeScenario) targets(sub *population.Subscriber) bool {
	if rt.domainMask != nil {
		hit := false
		for w := range rt.domainMask {
			if w < len(sub.Enrolled) && sub.Enrolled[w]&rt.domainMask[w] != 0 {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	switch rt.sc.Segment.LeakTier {
	case LeakTierLeaked:
		return sub.Leaked
	case LeakTierClean:
		return !sub.Leaked
	case LeakTierBreach:
		return sub.Class == population.LeakBreach
	case LeakTierWiFi:
		return sub.Class == population.LeakWiFi
	}
	return true
}

// attack streams every owned shard some member has not journaled
// through the run's worker pool. Each worker checks out one of the
// engine's shard slots per shard, so concurrent runs collectively never
// exceed cfg.Workers shards in flight, and folds the shard's parts into
// the members' aggregates itself (fold). A journal failure is its
// member's: the member is dropped and the run goes on for the others.
// An injected crash, or the last member dropped, cancels the run; the
// caller's goroutine feeds the shards and waits for the workers, so no
// worker goroutine outlives the call. The error returned is the one
// that stopped the run for its remaining members: a worker that
// abandons a shard it received, canceled while waiting for a slot or
// in a retry's backoff, makes it the context's error even when the
// feed had already sent every shard, so a canceled run never passes
// for a complete one.
func (r *run) attack(ctx context.Context) error {
	e := r.e
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	shardsTotal := int64(e.cfg.ShardHi - e.cfg.ShardLo)
	subsTotal := int64(e.cfg.Population.Size())
	for _, m := range r.members {
		prog.attach(shardsTotal, subsTotal, int64(m.seedShards), m.subs0, m.skip0)
		if m.sum.Subscribers+m.sum.SubscribersSkipped > 0 {
			m.progress(e) // resumed shards count as done up front
		}
	}
	defer func() {
		for _, m := range r.members {
			prog.detach(shardsTotal, subsTotal, int64(m.seedShards+m.merged),
				m.sum.Subscribers, m.sum.SubscribersSkipped, m.sum.Subscribers-m.subs0)
		}
	}()
	r.live = len(r.members)

	shards := make(chan int)
	var wg sync.WaitGroup
	var abandoned atomic.Bool
	for range e.cfg.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scr := newScratch(r.plan)
			defer scr.release()
			for i := range shards {
				sl := e.checkout(ctx)
				if sl == nil {
					abandoned.Store(true)
					return
				}
				if scr.need = r.need(i, scr.need[:0]); len(scr.need) == 0 {
					e.release(sl) // its members were dropped
					continue
				}
				parts := r.runShard(ctx, i, scr.need, sl, scr)
				e.release(sl)
				if parts == nil {
					abandoned.Store(true) // canceled mid-retry
					return
				}
				r.fold(i, scr.need, parts, cancel)
			}
		}()
	}
	err := feedShards(ctx, shards, e.cfg.ShardLo, e.cfg.ShardHi, r.skip())
	wg.Wait()
	if r.stopped {
		return context.Canceled
	}
	if err == nil && abandoned.Load() {
		err = ctx.Err()
	}
	return err
}

// fold merges shard i's parts, one per member of need, into the
// members' aggregates under the run's lock, journals them, and resets
// the parts for the worker's next shard. After a stop, and for a
// dropped member, a part is discarded. A journal failure drops its
// member; an injected crash, or the last member dropped, stops the run
// through cancel.
func (r *run) fold(i int, need []int, parts []*Summary, cancel context.CancelFunc) {
	e := r.e
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, part := range parts {
		m := r.members[need[k]]
		if r.stopped || m.err != nil {
			continue
		}
		aggStart := time.Now()
		m.sum.Merge(part)
		m.merged++
		prog.merge(part.Subscribers, part.SubscribersSkipped)
		m.progress(e)
		if m.ck != nil {
			if err := m.journalShard(e, i, part); err != nil {
				m.err = err
				m.dropped.Store(true)
				if r.live--; r.live == 0 || errors.Is(err, faultinject.ErrCrash) {
					r.stopped = true
					cancel()
				}
				continue
			}
			metShardsJournaled.Inc()
		}
		m.phases.observe("aggregate", aggStart)
	}
	for _, part := range parts {
		part.reset()
	}
}

// need appends to dst the members that still need shard i — those not
// dropped, without a checkpoint or whose journal lacks it — and returns
// it.
func (r *run) need(i int, dst []int) []int {
	for j, m := range r.members {
		if !m.dropped.Load() && (m.ck == nil || !m.ck.done[i]) {
			dst = append(dst, j)
		}
	}
	return dst
}

// skip is the feeder's done-shard bitmap: the shards every member has
// journaled (nil when some member keeps no checkpoint).
func (r *run) skip() []bool {
	for _, m := range r.members {
		if m.ck == nil {
			return nil
		}
	}
	skip := make([]bool, len(r.members[0].ck.done))
	for i := range skip {
		skip[i] = len(r.need(i, nil)) == 0
	}
	return skip
}

// progress reports the member's merged subscribers to the scenario
// progress callback.
func (m *member) progress(e *Engine) {
	if e.cfg.ScenarioProgress != nil {
		e.cfg.ScenarioProgress(m.norm.Name, int(m.sum.Subscribers+m.sum.SubscribersSkipped), e.cfg.Population.Size())
	}
}

// journalShard appends one shard's partial summary to the member's
// journal and folds a snapshot of its merged state when one is due. An
// error — including an injected crash — means the run must stop
// writing immediately. Each snapshot carries the member's cumulative
// active duration so far, so a resuming process can keep accounting
// wall clock across the crash boundary instead of restarting the
// throughput denominator.
func (m *member) journalShard(e *Engine, shard int, part *Summary) error {
	ck := m.ck
	payload, err := json.Marshal(part)
	if err != nil {
		return fmt.Errorf("campaign: encode shard %d summary: %w", shard, err)
	}
	if err := ck.j.Append(shard, payload); err != nil {
		return err
	}
	e.cfg.Trace.Emit(obs.TraceEvent{Event: "journal_append", Shard: shard, Subscribers: part.Subscribers})
	if !ck.j.Due() {
		return nil
	}
	m.sum.ActiveDuration = ck.activePrior + time.Since(ck.start)
	snap, err := json.Marshal(m.sum)
	if err != nil {
		return fmt.Errorf("campaign: encode snapshot: %w", err)
	}
	if err := ck.j.Snapshot(snap); err != nil {
		return err
	}
	e.cfg.Trace.Emit(obs.TraceEvent{Event: "snapshot", Shard: -1})
	e.cfg.Trace.Flush()
	return nil
}

// runShard attempts shard i for the members need lists against the
// fault injector's schedule, whose outcome depends only on (shard,
// attempt), so each member sees what its own run would: transient
// failures retry with bounded exponential backoff, while a poisoned
// shard or an exhausted attempt budget degrades to a quarantine summary
// for each member — the shard's subscribers are counted as skipped and
// the run continues, reporting an explicit coverage fraction instead of
// aborting. It returns one part per member of need, in the worker's
// scratch; nil means ctx was canceled mid-retry.
func (r *run) runShard(ctx context.Context, i int, need []int, sl *slot, scr *scratch) []*Summary {
	e := r.e
	pop := e.cfg.Population
	for attempt := 0; ; attempt++ {
		metShardsStarted.Inc()
		e.cfg.Trace.Emit(obs.TraceEvent{Event: "shard_start", Shard: i, Attempt: attempt})
		err := e.cfg.Fault.ShardAttempt(i, attempt)
		if err == nil {
			parts, detail := r.attackShard(i, need, sl, scr)
			e.cfg.Trace.Emit(obs.TraceEvent{Event: "shard_done", Shard: i, Attempt: attempt,
				Subscribers: parts[0].Subscribers, Detail: detail})
			return parts
		}
		if faultinject.IsTransient(err) && attempt+1 < e.cfg.MaxShardAttempts {
			metShardsRetried.Inc()
			e.cfg.Trace.Emit(obs.TraceEvent{Event: "shard_retry", Shard: i, Attempt: attempt, Detail: err.Error()})
			if !sleepCtx(ctx, faultinject.Backoff(e.cfg.RetryBackoff, attempt, e.cfg.RetryBackoffMax)) {
				return nil
			}
			continue
		}
		metShardsQuarantined.Inc()
		e.cfg.Trace.Emit(obs.TraceEvent{Event: "shard_quarantine", Shard: i, Attempt: attempt, Detail: err.Error()})
		start, end := pop.ShardBounds(i)
		parts := scr.zeroParts(len(need), len(pop.Services()))
		for _, part := range parts {
			part.ShardsQuarantined = 1
			part.SubscribersSkipped = int64(end - start)
		}
		return parts
	}
}

// sleepCtx waits d (or not at all), reporting false when ctx was
// canceled first — the retry loop's cancellation point.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		select {
		case <-ctx.Done():
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// feedShards sends the not-yet-done shards of [lo, hi) on ch, honoring
// cancellation, and closes it.
func feedShards(ctx context.Context, ch chan<- int, lo, hi int, done []bool) error {
	defer close(ch)
	for i := lo; i < hi; i++ {
		if done != nil && done[i] {
			continue // journaled by a previous process; resume skips it
		}
		select {
		case ch <- i:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// otpDeliver is the OTP TPDU every synthesized session carries; its
// fixed timestamp keeps the synthesized traffic deterministic.
var otpDeliver = gsmcodec.Deliver{
	Originator: "ActFort",
	Timestamp:  time.Date(2021, 4, 19, 12, 0, 0, 0, time.UTC),
	Text:       "Code 845512",
}

// baseARFCN is the first channel of the synthesized campaign cell;
// victims spread across [baseARFCN, baseARFCN+CellChannels).
const baseARFCN = 512

// attackShard attacks shard i for the members need lists and returns
// their parts, in need's order, in the worker's scratch. Each member's
// radio outcome is a memo hit or its own radio stage on the slot's rig,
// the slot reset between members so no key, capture or arena string
// crosses radio environments. When every member hits the memo and the
// shard's closure inputs are resident, the shard attack is only the
// chain reaction, with detail "resident". Otherwise it generates the
// shard and fills its closure inputs into the slot, detail
// "radio_memo" when no radio stage ran; if some member hit the memo, a
// copy of them becomes resident. The chain reaction is evaluated once
// for the union of the members' intercepted victims against the run's
// compiled plan, and each block's outcome folds into every member's
// part through that member's lanes. Only a completed attackShard
// stores memo entries, so a failed or quarantined shard never leaves
// one behind.
func (r *run) attackShard(i int, need []int, sl *slot, scr *scratch) (parts []*Summary, detail string) {
	e := r.e
	pop := e.cfg.Population
	start, end := pop.ShardBounds(i)
	parts, rads := scr.zeroParts(len(need), len(pop.Services())), scr.rads[:0]
	hits := 0
	for k, j := range need {
		m := r.members[j]
		parts[k].Subscribers = int64(end - start)
		memoStart := time.Now()
		rad := m.radio.entries[i-e.cfg.ShardLo].Load()
		if rad != nil {
			m.phases.observe("radio_memo", memoStart)
			hits++
		}
		rads = append(rads, rad)
	}
	scr.rads = rads
	res := &e.resident[i-e.cfg.ShardLo]
	in := res.Load()
	closureStart := time.Now()
	var sh *population.Shard
	ran := scr.ran[:0]
	if hits == len(need) && in != nil {
		detail = "resident"
	} else {
		sh = pop.Shard(i)
		defer sh.Release()
		metPopBytesPerSub.Set(float64(sh.MemBytes() / len(sh.Subscribers)))
		detail = "radio_memo"
		for k, j := range need {
			if rads[k] != nil {
				continue
			}
			if detail == "" {
				sl.reset() // the previous member's radio stage
			}
			detail = ""
			rads[k] = r.radioStage(r.members[j], sh, sl)
			ran = append(ran, k)
		}
		scr.ran = ran
		closureStart = time.Now()
	}
	if len(ran) == 0 {
		sl.drop()
	}
	// The chain reaction runs over the union of the members' intercepted
	// victims; a lone member's lanes are the block's.
	union, members := rads[0].intercepted, [][]uint64(nil)
	if len(rads) > 1 {
		union, members = scr.union(rads), scr.members(rads)
	}
	if in == nil {
		sl.in.fill(pop, sh)
		in = &sl.in
		if hits > 0 {
			// The shard's second attack: keep its closure inputs.
			in = sl.in.clone()
			if res.CompareAndSwap(nil, in) {
				metResidentBytes.Set(float64(e.residentBytes.Add(in.bytes())))
			}
		}
	}
	for k, part := range parts {
		// Per-shard leak accounting (persona phones are unique, so
		// summing shard counts equals the size of the merged leak
		// database): the count lands in the journaled partial, which
		// keeps resumed and multi-process runs exact.
		rad := rads[k]
		part.LeakRecords = in.leakCount
		part.Targeted, part.Covered = rad.targeted, rad.covered
		part.Sessions, part.A50Sessions, part.A53Sessions = rad.sessions, rad.a50Sessions, rad.a53Sessions
		part.Sniffer.Add(rad.sniffer)
	}

	// Chain-reaction phase: evaluate the intercepted victims 256 at a
	// time, one per lane in shard order, packed from the shard's closure
	// inputs, each member's interception riding along as its lanes.
	blocks, layers, lanes := 0, 0, 0
	scr.blk.pack(in, union, members, func(words []strategy.Word, mask *strategy.Word, member []strategy.Word) {
		layers += scr.solveBlock(words, mask, member, parts)
		lanes += mask.Count()
		blocks++
	})
	metClosureBlocks.Add(int64(blocks))
	metClosureLanes.Add(int64(lanes))
	metClosureLayers.Add(int64(layers))
	// The fused closure is every member's: each observes an even share.
	share := time.Since(closureStart).Seconds() / float64(len(need))
	for _, j := range need {
		r.members[j].phases.observeSeconds("closure", share)
	}
	for _, k := range ran {
		r.members[need[k]].radio.entries[i-e.cfg.ShardLo].Store(rads[k]) // a miss: the radio stage ran here
	}
	return parts, detail
}

// radioChunk is how many subscribers one pass of a radio stage covers.
// Every radio buffer — the slot's session batch, burst buffer and
// captures, the rig's session freelist and FeedBatch scratch, and the
// cracker's replay scratch — is sized by the largest chunk fed, so a
// cold slot holds one chunk's air traffic, not one shard's. Smaller
// chunks fill fewer lanes of a crack batch's 64-lane passes and leave
// more sub-cutoff remainders to the scalar clock, for the same lookups
// and fingerprints. On a cold 1M run, 1,024 takes the peak live heap
// from about 60 MB (whole 4,096-subscriber shards) to 22 MB for 3.3%
// more bitsliced clocks; 512 saves 6 MB more for twice that cost, and
// 2,048 holds 37 MB (docs/BENCHMARKS.md, "Radio stage in chunks").
const radioChunk = 1024

// radioStage runs one shard's radio half in passes of radioChunk
// subscribers (radioPasses). The result is a pure function of
// (population seed, shard, radio environment, budget, segment) —
// policy and platform never reach it — which is what lets the memo
// replay it for any scenario with the same key. It runs member m's
// stage: m's radio environment, budget and segment, its phases and the
// rig's crack durations observed into m's histograms. The slot must be
// fresh or reset, so its rig holds no cracked key of an earlier shard.
func (r *run) radioStage(m *member, sh *population.Shard, sl *slot) *radioOut {
	return r.radioPasses(m, sh, sl, radioChunk)
}

// radioPasses runs the radio stage over consecutive chunks of chunk
// subscribers. Each pass gathers its targeted victims' session
// descriptors, encrypts the gathered A5/1 sessions in 64-lane
// bitsliced blocks into the slot's burst buffer, feeds the bursts to
// the slot's sniffer rig backed by the shared cracker, and drains the
// rig's captures to mark the victims whose sessions it decoded. The
// passes share what one pass over the shard would: the COUNT schedule
// continues from pass to pass, session IDs stay shard-local, and the
// rig is not reset between passes, so its (IMSI, RAND) cache spans the
// shard. The IMSI arena holds one pass's strings: the bursts carry
// their IMSIs inline, so the rig's caches keep none of them.
// FeedBatch's contract makes a trace fed in pieces equal to the whole
// trace fed at once, so the outcome does not depend on chunk. synth,
// encrypt and feed are observed once per shard, each the sum over its
// passes; the rig observes one crack batch per pass.
func (r *run) radioPasses(m *member, sh *population.Shard, sl *slot, chunk int) *radioOut {
	e, rt := r.e, m.rt
	pop := e.cfg.Population
	out := &radioOut{intercepted: make([]uint64, (len(sh.Subscribers)+63)/64)}
	rig := sl.rig
	rig.SetCrackObserver(m.phases.crack())

	seed := uint64(pop.Seed())
	sessions := rt.sessions
	frame := uint32(0)
	var synth, encrypt, feed time.Duration
	for lo := 0; lo < len(sh.Subscribers); lo += chunk {
		// Gather phase: every session carries otpDeliver, so the burst
		// count driving the COUNT schedule is the engine's, computed once.
		synthStart := time.Now()
		batch := sl.radio[:0]
		sl.strs.Reset()
		for li := lo; li < min(lo+chunk, len(sh.Subscribers)); li++ {
			sub := &sh.Subscribers[li]
			if !rt.targets(sub) {
				continue // outside the scenario's victim segment
			}
			out.targeted++
			idx := uint64(sub.Index)
			// The victim's serving channel: covered only when one of the
			// fleet's receivers camps on it.
			channel := population.Mix(seed, population.TagCoverage, idx) % rt.channels
			if channel >= rt.receivers {
				continue // victim's channel outside the rig's fleet
			}
			out.covered++
			sl.phone = population.AppendIMSI(sl.phone[:0], sub.Index)
			imsi := slab.StringOf(&sl.strs, sl.phone)
			mode := rt.mix.Mode(population.Unit(population.Mix(seed, population.TagCipher, idx)))
			ki := telecom.SubscriberKi(pop.Seed(), imsi)
			epoch := uint64(0)
			var rnd [16]byte
			var kc uint64
			for s := 0; s < sessions; s++ {
				fresh := s == 0
				if s > 0 && population.Unit(population.Mix(seed, population.TagReauth, idx, uint64(s))) >= rt.reauthSkip {
					epoch++ // operator re-authenticated: fresh RAND, fresh Kc
					fresh = true
				}
				if fresh {
					// RAND and Kc only change with the auth epoch, so Kc is
					// derived once per epoch, not per session, from the Ki
					// derived once per victim (the values are identical
					// either way).
					rnd = rand16(population.Mix(seed, population.TagRAND, idx, epoch))
					kc = telecom.SessionKeyFromKi(ki, rnd, e.space)
				}
				// Schedule the session's paging burst on the next CCCH
				// paging block, as the live network does, so the table
				// backend's frame classes cover it.
				start := telecom.NextPagingStart(frame)
				batch = append(batch, telecom.SMSSession{
					ARFCN:      baseARFCN + int(channel),
					CellID:     "campaign-cell",
					SessionID:  uint32(li*sessions + s),
					StartFrame: start,
					Cipher:     mode,
					Kc:         kc,
					IMSI:       imsi,
					RAND:       rnd,
					Deliver:    otpDeliver,
				})
				frame = start + e.otpBursts
				out.sessions++
				switch mode {
				case telecom.CipherA50:
					out.a50Sessions++
				case telecom.CipherA53:
					out.a53Sessions++
				}
			}
		}
		sl.radio = batch // keep the grown buffer for the next pass
		synth += time.Since(synthStart)
		if len(batch) == 0 {
			continue
		}

		// Encrypt phase: the chunk's A5/1 bursts run through the 64-lane
		// bitsliced encryptor, then the rig hears every burst in session
		// order.
		encStart := time.Now()
		// The flat trace lives in the slot's burst buffer: FeedBatch
		// copies each burst into its own session slots, so the buffer is
		// free for the next pass as soon as it returns.
		if sl.bursts == nil {
			sl.bursts = telecom.AcquireBurstBuffer()
		}
		flat, err := telecom.EncodeSMSBurstsInto(batch, sl.bursts)
		if err != nil {
			// otpDeliver marshaled in New, so the batch cannot fail;
			// reaching here means the session counters above are already
			// wrong, and silently dropping the shard's traffic would
			// move the golden Summaries undetected.
			panic(fmt.Sprintf("campaign: batch encode of pre-validated sessions failed: %v", err))
		}
		feedStart := time.Now()
		encrypt += feedStart.Sub(encStart)
		rig.FeedBatch(flat)
		feed += time.Since(feedStart)

		// Attribute the pass's decoded captures back to victims via
		// session IDs; draining keeps the rig's capture list a chunk's.
		sl.caught = rig.DrainSessionIDs(sl.caught[:0])
		for _, id := range sl.caught {
			li := int(id) / sessions
			out.intercepted[li>>6] |= 1 << (uint(li) & 63)
		}
	}
	m.phases.observeSeconds("synth", synth.Seconds())
	if out.sessions > 0 {
		m.phases.observeSeconds("encrypt", encrypt.Seconds())
		m.phases.observeSeconds("feed", feed.Seconds())
	}
	out.sniffer = rig.Stats()
	return out
}

// rand16 expands one draw into a RAND challenge.
func rand16(h uint64) [16]byte {
	var out [16]byte
	binary.BigEndian.PutUint64(out[:8], h)
	binary.BigEndian.PutUint64(out[8:], population.Mix(h, 0x52414E44))
	return out
}
