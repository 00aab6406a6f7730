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
//     so subscriber state (personas, enrollments, radio sessions) is
//     O(shard). A cold run holds nothing population-proportional; a
//     warm engine holds the radio memo and the resident closure inputs
//     below;
//   - every worker synthesizes each victim's OTP radio sessions with
//     the same burst encoder the live Network uses and feeds them to a
//     per-shard passive sniffer rig — batched sniffer sessions;
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
//   - metrics stream to a single aggregator as per-shard partial
//     summaries and render through internal/report.
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
	// Scenario is the default scenario Run executes; the zero value is
	// the paper's baseline environment (no policy, measured radio mix,
	// full-coverage 16-receiver fleet, whole population).
	Scenario Scenario
	// ScenarioProgress, when non-nil, receives (scenario, done, total)
	// after every merged shard of every run. Callbacks of concurrent
	// scenarios may arrive concurrently; the callee synchronizes.
	ScenarioProgress func(scenario string, done, total int)
	// SweepParallel bounds how many sweep scenarios RunSweep keeps in
	// flight at once (0 or 1 = sequential, the default). However many
	// scenarios overlap, their shard work shares the one Workers-bounded
	// budget, so parallelism overlaps a scenario's tail (aggregation,
	// stragglers) with the next scenario's start instead of
	// oversubscribing the machine.
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
// multiple goroutines at once; all per-run state lives in the run type.
// Build with New, execute one scenario with Run/RunScenario or a
// comparative list with RunSweep.
type Engine struct {
	cfg     Config
	space   a51.KeySpace
	cracker a51.Cracker

	// plans caches compiled attack plans by (policy, platform): a sweep
	// comparing radio environments under one policy compiles once.
	planMu sync.Mutex
	plans  map[planKey]*attackPlan

	// slots is the shard budget and the rig pool in one: cfg.Workers
	// slots, each nil until its first checkout builds the slot's sniffer
	// rig. Every worker of every in-flight run takes a slot per shard, so
	// overlapping runs together attack at most cfg.Workers shards at a
	// time and RigsBuilt ≤ cfg.Workers by construction, whatever radio
	// environments they mix. A rig holds no radio-environment state — it
	// uses its network only for the key space and is never tuned — so
	// after Reset any rig serves any run. shell is that network, shared
	// by every rig; rigsBuilt counts constructions.
	slots     chan *sniffer.Sniffer
	shell     *telecom.Network
	rigsBuilt atomic.Int64

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
		slots: make(chan *sniffer.Sniffer, cfg.Workers),
		memo:  radioMemo{keys: make(map[radioKey]*radioShards)},
	}
	e.resident = make([]atomic.Pointer[closureIn], cfg.ShardHi-cfg.ShardLo)
	for range cfg.Workers {
		e.slots <- nil
	}
	e.shell = telecom.NewNetwork(telecom.Config{KeySpace: e.space, Seed: cfg.Population.Seed()})
	var err error
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
	// Compile the default scenario's plan eagerly so a misconfigured
	// Config fails at New, like it always has.
	if _, err := e.planForScenario(cfg.Scenario); err != nil {
		return nil, err
	}
	return e, nil
}

// Cracker exposes the shared backend (benchmarks and the CLI report
// its name).
func (e *Engine) Cracker() a51.Cracker { return e.cracker }

// RigsBuilt reports how many sniffer rigs the engine has constructed:
// at most Workers over the engine's lifetime, one per shard slot.
func (e *Engine) RigsBuilt() int64 { return e.rigsBuilt.Load() }

// planForScenario normalizes sc and returns its cached or
// freshly compiled plan.
func (e *Engine) planForScenario(sc Scenario) (*attackPlan, error) {
	norm, err := sc.normalize(0)
	if err != nil {
		return nil, err
	}
	return e.plan(norm)
}

// plan returns the compiled plan for a normalized scenario, applying
// its countermeasure policy to the catalog first.
func (e *Engine) plan(sc Scenario) (*attackPlan, error) {
	key := planKey{policy: sc.Policy, platform: sc.Platform}
	if key.policy == "" {
		key.policy = "none"
	}
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

// checkout takes a shard slot, blocking until one is free or ctx is
// done (nil), and returns the slot's rig — built on the slot's first
// use — with crackObs receiving its batched-crack durations until
// release.
func (e *Engine) checkout(ctx context.Context, crackObs *obs.Histogram) *sniffer.Sniffer {
	var rig *sniffer.Sniffer
	select {
	case rig = <-e.slots:
	case <-ctx.Done():
		return nil
	}
	if rig == nil {
		e.rigsBuilt.Add(1)
		metRigsBuilt.Inc()
		rig = sniffer.New(e.shell, sniffer.Config{Cracker: e.cracker})
	} else {
		metRigsReused.Inc()
	}
	rig.SetCrackObserver(crackObs)
	return rig
}

// release resets a checked-out rig, detaches the run's crack observer
// and returns the slot for the next shard of any run.
func (e *Engine) release(rig *sniffer.Sniffer) {
	rig.Reset()
	rig.SetCrackObserver(nil)
	e.slots <- rig
}

// Run executes the engine's default scenario.
func (e *Engine) Run(ctx context.Context) (*Summary, error) {
	return e.RunScenario(ctx, e.cfg.Scenario)
}

// RunScenario executes one scenario: attack every owned shard through
// the worker pool, streaming partial summaries into one aggregate. The returned Summary is deterministic
// for a fixed config apart from Duration/VictimsPerSec — including
// across kill-and-resume boundaries when a Checkpoint is configured.
// RunScenario is safe to call concurrently: each call builds its own
// run over the engine's shared core, and overlapping calls share the
// Workers-bounded shard budget.
func (e *Engine) RunScenario(ctx context.Context, sc Scenario) (*Summary, error) {
	dir := ""
	if e.cfg.Checkpoint != nil {
		dir = e.cfg.Checkpoint.Dir
	}
	return e.runScenario(ctx, sc, dir)
}

// run is the per-run half of the engine split: everything one
// executing scenario owns alone — the normalized scenario and its
// runtime view, the compiled plan (shared and read-only, cached on the
// engine), the checkpoint handle, the run-local phase histograms and
// the bound progress callback. The Engine holds only shared state;
// a run is built per RunScenario call and dies with it, which is what
// makes overlapping calls safe.
type run struct {
	e      *Engine
	norm   Scenario
	rt     *runtimeScenario
	plan   *attackPlan
	radio  *radioShards
	ck     *ckptRun
	phases *phaseSet
	// free holds merged partial summaries, zeroed, for the next
	// shards: the aggregator returns each part once merged and
	// journaled, so a run allocates a few parts, not one per shard. Its
	// 2×Workers capacity is the parts a run can have outstanding: one
	// per worker plus the parts channel's Workers-deep buffer.
	free chan *Summary
}

// runScenario is RunScenario with an explicit checkpoint directory, so
// a sweep can give each scenario its own subdirectory.
func (e *Engine) runScenario(ctx context.Context, sc Scenario, dir string) (*Summary, error) {
	start := time.Now()
	norm, err := sc.normalize(0)
	if err != nil {
		return nil, err
	}
	e.cfg.Trace.Emit(obs.TraceEvent{Event: "run_start", Shard: -1, Detail: norm.Name})
	r, err := e.newRun(norm)
	if err != nil {
		return nil, err
	}
	if dir != "" {
		r.ck, err = e.openCheckpoint(dir, norm)
		if err != nil {
			return nil, err
		}
		defer r.ck.j.Close()
	}
	sum, err := r.attack(ctx)
	if err != nil {
		return nil, err
	}
	sum.Scenario = norm.Name
	sum.Policy = norm.Policy
	sum.Backend = e.cracker.Name()
	sum.Workers = e.cfg.Workers
	sum.recomputeCoverage()
	sum.Duration = time.Since(start)
	// Throughput is the cumulative rate: all subscribers ever processed
	// over all wall clock ever spent, across every process that worked
	// on this checkpoint directory. The pre-telemetry code divided the
	// full (resumed + new) victim count by this process's clock alone,
	// overstating resumed runs' rates by the resumed fraction.
	sum.ActiveDuration = sum.Duration
	sum.ResumeVictimsPerSec = 0
	if r.ck != nil {
		sum.ActiveDuration = r.ck.activePrior + sum.Duration
		if r.ck.resumed {
			if secs := sum.Duration.Seconds(); secs > 0 {
				sum.ResumeVictimsPerSec = float64(sum.Subscribers-r.ck.subsPrior) / secs
			}
		}
	}
	if secs := sum.ActiveDuration.Seconds(); secs > 0 {
		sum.VictimsPerSec = float64(sum.Subscribers) / secs
	}
	sum.PhaseTimings = r.phases.timings()
	if r.ck != nil {
		payload, err := json.Marshal(sum)
		if err != nil {
			return nil, fmt.Errorf("campaign: encode final summary: %w", err)
		}
		if err := r.ck.j.WriteResult(payload); err != nil {
			return nil, err
		}
	}
	e.cfg.Trace.Emit(obs.TraceEvent{Event: "run_done", Shard: -1, Subscribers: sum.Subscribers})
	e.cfg.Trace.Flush()
	return sum, nil
}

// newRun builds normalized scenario norm's run over the engine's
// shared core: its plan, runtime view and radio-memo entries.
func (e *Engine) newRun(norm Scenario) (*run, error) {
	r := &run{e: e, norm: norm, phases: newPhaseSet(), free: make(chan *Summary, 2*e.cfg.Workers)}
	var err error
	if r.plan, err = e.plan(norm); err != nil {
		return nil, err
	}
	if r.rt, err = e.newRuntime(norm); err != nil {
		return nil, err
	}
	r.radio = e.memo.shards(radioKey{radio: norm.Radio, budget: norm.Budget, segment: norm.Segment},
		e.cfg.ShardHi-e.cfg.ShardLo)
	return r, nil
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

// shardResult pairs a completed shard with its partial summary so the
// aggregator can journal it under the right index.
type shardResult struct {
	shard int
	part  *Summary
}

// attack streams every owned, not-yet-journaled shard through the
// run's worker pool and aggregates the partial summaries. Each worker
// checks out one of the engine's shard slots per shard, so concurrent
// runs collectively never exceed cfg.Workers shards in flight. With a
// checkpoint, the aggregator (the journal's single owner) appends each
// merged part and folds periodic snapshots; a journal failure —
// including an injected crash — cancels the run and drains the pool so
// no worker goroutine outlives the call.
func (r *run) attack(ctx context.Context) (*Summary, error) {
	e := r.e
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pop := e.cfg.Population
	numServices := len(pop.Services())
	shards := make(chan int)
	parts := make(chan shardResult, e.cfg.Workers)

	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scr := newScratch(r.plan)
			defer scr.release()
			for i := range shards {
				rig := e.checkout(ctx, r.phases.crack())
				if rig == nil {
					return
				}
				part := r.runShard(ctx, i, rig, scr)
				e.release(rig)
				if part == nil {
					return // canceled mid-retry
				}
				select {
				case parts <- shardResult{shard: i, part: part}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	var skip []bool
	if r.ck != nil {
		skip = r.ck.done
	}
	feedErr := make(chan error, 1)
	go func() {
		feedErr <- feedShards(ctx, shards, e.cfg.ShardLo, e.cfg.ShardHi, skip)
		wg.Wait()
		close(parts)
	}()

	sum := newSummary(numServices)
	seedShards := 0
	if r.ck != nil {
		sum = r.ck.seed
		for _, d := range r.ck.done {
			if d {
				seedShards++
			}
		}
	}
	subs0, skip0 := sum.Subscribers, sum.SubscribersSkipped
	shardsTotal := int64(e.cfg.ShardHi - e.cfg.ShardLo)
	subsTotal := int64(pop.Size())
	mergedShards := 0
	prog.attach(shardsTotal, subsTotal, int64(seedShards), subs0, skip0)
	defer func() {
		prog.detach(shardsTotal, subsTotal, int64(seedShards+mergedShards),
			sum.Subscribers, sum.SubscribersSkipped, sum.Subscribers-subs0)
	}()
	progress := func() {
		if e.cfg.ScenarioProgress != nil {
			e.cfg.ScenarioProgress(r.norm.Name, int(sum.Subscribers+sum.SubscribersSkipped), pop.Size())
		}
	}
	if sum.Subscribers+sum.SubscribersSkipped > 0 {
		progress() // resumed shards count as done up front
	}
	var runErr error
	for res := range parts {
		if runErr != nil {
			continue // draining after failure so the pool can exit
		}
		aggStart := time.Now()
		sum.Merge(res.part)
		mergedShards++
		prog.merge(res.part.Subscribers, res.part.SubscribersSkipped)
		progress()
		if r.ck != nil {
			if err := r.journalShard(res.shard, res.part, sum); err != nil {
				runErr = err
				cancel()
			} else {
				metShardsJournaled.Inc()
			}
		}
		r.phases.observe("aggregate", aggStart)
		res.part.reset()
		select {
		case r.free <- res.part:
		default:
		}
	}
	ferr := <-feedErr
	if runErr != nil {
		return nil, runErr
	}
	if ferr != nil {
		return nil, ferr
	}
	return sum, nil
}

// journalShard appends one shard's partial summary and folds a
// snapshot of the merged state when one is due. An error — including
// an injected crash — means the run must stop writing immediately.
// Each snapshot carries the run's cumulative active duration so far,
// so a resuming process can keep accounting wall clock across the
// crash boundary instead of restarting the throughput denominator.
func (r *run) journalShard(shard int, part, sum *Summary) error {
	ck := r.ck
	payload, err := json.Marshal(part)
	if err != nil {
		return fmt.Errorf("campaign: encode shard %d summary: %w", shard, err)
	}
	if err := ck.j.Append(shard, payload); err != nil {
		return err
	}
	r.e.cfg.Trace.Emit(obs.TraceEvent{Event: "journal_append", Shard: shard, Subscribers: part.Subscribers})
	if !ck.j.Due() {
		return nil
	}
	sum.ActiveDuration = ck.activePrior + time.Since(ck.start)
	snap, err := json.Marshal(sum)
	if err != nil {
		return fmt.Errorf("campaign: encode snapshot: %w", err)
	}
	if err := ck.j.Snapshot(snap); err != nil {
		return err
	}
	r.e.cfg.Trace.Emit(obs.TraceEvent{Event: "snapshot", Shard: -1})
	r.e.cfg.Trace.Flush()
	return nil
}

// runShard attempts shard i against the fault injector's schedule:
// transient failures retry with bounded exponential backoff, while a
// poisoned shard or an exhausted attempt budget degrades to a
// quarantine summary — the shard's subscribers are counted as skipped
// and the run continues, reporting an explicit coverage fraction
// instead of aborting. A nil return means ctx was canceled mid-retry.
func (r *run) runShard(ctx context.Context, i int, rig *sniffer.Sniffer, scr *scratch) *Summary {
	e := r.e
	pop := e.cfg.Population
	for attempt := 0; ; attempt++ {
		metShardsStarted.Inc()
		e.cfg.Trace.Emit(obs.TraceEvent{Event: "shard_start", Shard: i, Attempt: attempt})
		err := e.cfg.Fault.ShardAttempt(i, attempt)
		if err == nil {
			part, detail := r.attackShard(i, rig, scr)
			e.cfg.Trace.Emit(obs.TraceEvent{Event: "shard_done", Shard: i, Attempt: attempt,
				Subscribers: part.Subscribers, Detail: detail})
			return part
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
		part := r.newPart()
		start, end := pop.ShardBounds(i)
		part.ShardsQuarantined = 1
		part.SubscribersSkipped = int64(end - start)
		return part
	}
}

// newPart returns a zeroed partial summary, reusing a merged one when
// the aggregator has returned any.
func (r *run) newPart() *Summary {
	select {
	case p := <-r.free:
		return p
	default:
		return newSummary(len(r.e.cfg.Population.Services()))
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

// otpTimestamp keeps synthesized TPDUs deterministic.
var otpTimestamp = time.Date(2021, 4, 19, 12, 0, 0, 0, time.UTC)

// baseARFCN is the first channel of the synthesized campaign cell;
// victims spread across [baseARFCN, baseARFCN+CellChannels).
const baseARFCN = 512

// attackShard attacks shard i. On a radio-memo hit for a shard whose
// closure inputs are resident it runs only the chain reaction, with
// detail "resident". Otherwise it generates the shard; then a memo hit
// (detail "radio_memo") makes the shard's closure inputs resident, and
// a miss runs the radio stage on the slot's rig and gathers the
// intercepted victims' inputs into the worker's scratch. Either way the chain reaction is evaluated for
// each intercepted victim against the scenario's compiled plan. Only a
// completed attackShard stores a memo entry, so a failed or
// quarantined shard never leaves one behind.
func (r *run) attackShard(i int, rig *sniffer.Sniffer, scr *scratch) (part *Summary, detail string) {
	e := r.e
	pop := e.cfg.Population
	part = r.newPart()
	start, end := pop.ShardBounds(i)
	part.Subscribers = int64(end - start)

	memoStart := time.Now()
	slot := &r.radio.entries[i-e.cfg.ShardLo]
	res := &e.resident[i-e.cfg.ShardLo]
	rad, in := slot.Load(), res.Load()
	if rad != nil {
		r.phases.observe("radio_memo", memoStart)
	}
	closureStart := time.Now()
	if rad != nil && in != nil {
		detail = "resident"
	} else {
		sh := pop.Shard(i)
		defer sh.Release()
		metPopBytesPerSub.Set(float64(sh.MemBytes() / len(sh.Subscribers)))
		if rad != nil {
			// The shard's second attack: keep its closure inputs.
			detail = "radio_memo"
			closureStart = time.Now()
			scr.in.fill(pop, sh, nil)
			in = scr.in.clone()
			if res.CompareAndSwap(nil, in) {
				metResidentBytes.Set(float64(e.residentBytes.Add(in.bytes())))
			}
		} else {
			rad = r.radioStage(sh, rig, scr)
			closureStart = time.Now()
			if in == nil {
				scr.in.fill(pop, sh, rad.intercepted)
				in = &scr.in
			}
		}
	}
	// Per-shard leak accounting (persona phones are unique, so summing
	// shard counts equals the size of the merged leak database): the
	// count lands in the journaled partial, which keeps resumed and
	// multi-process runs exact.
	part.LeakRecords = in.leakCount
	part.Targeted, part.Covered = rad.targeted, rad.covered
	part.Sessions, part.A50Sessions, part.A53Sessions = rad.sessions, rad.a50Sessions, rad.a53Sessions
	part.Sniffer.Add(rad.sniffer)

	// Chain-reaction phase: evaluate the intercepted victims 256 at a
	// time, one per lane in shard order, packed from the shard's
	// closure inputs.
	blocks, layers := 0, 0
	scr.blk.pack(in, rad.intercepted, func(words []strategy.Word, lanes *strategy.Word) {
		layers += scr.solveBlock(words, lanes, part)
		blocks++
	})
	metClosureBlocks.Add(int64(blocks))
	metClosureLanes.Add(part.Intercepted)
	metClosureLayers.Add(int64(layers))
	r.phases.observe("closure", closureStart)
	if detail == "" {
		slot.Store(rad) // a miss: the radio stage ran here
	}
	return part, detail
}

// radioStage runs one shard's radio half, gather-then-encrypt: walk the
// shard once collecting every targeted victim's session descriptors,
// encrypt the gathered A5/1 sessions in 64-lane bitsliced blocks, feed
// the bursts to the slot's sniffer rig backed by the shared cracker,
// and mark the victims whose sessions it decoded. The result is a pure
// function of (population seed, shard, radio environment, budget,
// segment) — policy and platform never reach it — which is what lets
// the memo replay it for any scenario with the same key.
func (r *run) radioStage(sh *population.Shard, rig *sniffer.Sniffer, scr *scratch) *radioOut {
	e, rt := r.e, r.rt
	pop := e.cfg.Population
	out := &radioOut{intercepted: make([]uint64, (len(sh.Subscribers)+63)/64)}

	// Per-shard IMSI strings are carved from the shard-cycle arena:
	// they reach the sniffer rig's session caches, which release's
	// rig.Reset empties before this worker's next shard reuses the
	// arena. Reset clears the caches in place, and clear drops the
	// arena-backed keys exactly as a fresh map did.
	scr.strs.Reset()

	synthStart := time.Now()
	seed := uint64(pop.Seed())
	sessions := rt.sessions
	frame := uint32(0)

	// Gather phase: one shared OTP TPDU serves every synthesized
	// session, so the burst count driving the COUNT schedule is computed
	// once up front instead of marshaling per session. An unencodable
	// TPDU keeps the targeting/coverage counters and synthesizes nothing
	// — exactly what per-session encode failures used to do.
	deliver := gsmcodec.Deliver{
		Originator: "ActFort",
		Timestamp:  otpTimestamp,
		Text:       "Code 845512",
	}
	encodable := false
	perSession := uint32(0)
	if raw, err := deliver.Marshal(); err == nil {
		encodable = true
		perSession = uint32(telecom.SessionBurstCount(len(raw)))
	}
	batch := scr.radio[:0]
	for li := range sh.Subscribers {
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
		if !encodable {
			continue
		}
		scr.phone = population.AppendIMSI(scr.phone[:0], sub.Index)
		imsi := slab.StringOf(&scr.strs, scr.phone)
		mode := rt.mix.Mode(population.Unit(population.Mix(seed, population.TagCipher, idx)))
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
				// RAND and Kc only change with the auth epoch, so the
				// SHA-based derivations run once per epoch, not per
				// session (the values are identical either way).
				rnd = rand16(population.Mix(seed, population.TagRAND, idx, epoch))
				kc = telecom.SessionKey(pop.Seed(), imsi, rnd, e.space)
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
				Deliver:    deliver,
			})
			frame = start + perSession
			out.sessions++
			switch mode {
			case telecom.CipherA50:
				out.a50Sessions++
			case telecom.CipherA53:
				out.a53Sessions++
			}
		}
	}
	scr.radio = batch // keep the grown buffer for the next shard
	r.phases.observe("synth", synthStart)

	// Encrypt phase: the whole shard's A5/1 bursts run through the
	// 64-lane bitsliced encryptor, then the rig hears every burst in
	// session order.
	if len(batch) > 0 {
		encStart := time.Now()
		// The flat trace lives in the worker's pooled burst buffer:
		// FeedBatch copies each burst into its own session slots, so
		// the buffer is free for reuse as soon as it returns.
		flat, err := telecom.EncodeSMSBurstsInto(batch, scr.bursts)
		if err != nil {
			// The shared TPDU marshaled above, so the batch cannot fail;
			// reaching here means the session counters above are already
			// wrong, and silently dropping the shard's traffic would
			// move the golden Summaries undetected.
			panic(fmt.Sprintf("campaign: batch encode of pre-validated sessions failed: %v", err))
		}
		r.phases.observe("encrypt", encStart)
		feedStart := time.Now()
		rig.FeedBatch(flat)
		r.phases.observe("feed", feedStart)
	}

	// Attribute decoded captures back to victims via session IDs.
	scr.captures = rig.AppendCaptures(scr.captures[:0])
	for _, c := range scr.captures {
		li := int(c.SessionID) / sessions
		out.intercepted[li>>6] |= 1 << (uint(li) & 63)
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
