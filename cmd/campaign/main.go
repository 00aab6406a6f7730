// Command campaign runs the population-scale chain-reaction attack:
// a seeded synthetic subscriber base (default one million) is swept by
// a worker pool that sniffs each victim's SMS OTP sessions off the
// simulated GSM air interface — all rigs sharing one precomputed A5/1
// TMTO table — and evaluates how far the compromise chains propagate
// through the calibrated 201-service account ecosystem.
//
// With -sweep it becomes the fortification evaluator: several
// declarative scenarios (countermeasure policy × radio environment ×
// attacker budget × victim segment) run against the SAME population
// and the SAME cracker table in one process, and the comparative
// report shows how much each program shrinks the takeover mass.
//
// Usage:
//
//	campaign                                   # 1M subscribers, table backend
//	campaign -subscribers 5000                 # CI-sized smoke run
//	campaign -backend bitsliced                # per-session search, no table
//	campaign -policy fortify-all               # one fortified run
//	campaign -sweep                            # baseline vs fortified vs A5/3 mix
//	campaign -sweep -scenarios baseline,harden-email
//	campaign -sweep -scenario-file sweep.json  # declarative scenario list
//	campaign -json                             # machine-readable summary
//
// Durable runs and multi-process sharding:
//
//	campaign -checkpoint-dir ck                # journaled; rerun to resume
//	campaign -checkpoint-dir ck -shard-range 0/2   # process 1 of 2
//	campaign -checkpoint-dir ck -shard-range 1/2   # process 2 of 2
//	campaign -checkpoint-dir ck -merge         # combine the partials
//
// An injected crash (-fault-crash, the recovery-test harness) exits
// with status 137, the same code a real kill -9 yields.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/actfort/actfort/internal/campaign"
	"github.com/actfort/actfort/internal/faultinject"
	"github.com/actfort/actfort/internal/obs"
	"github.com/actfort/actfort/internal/population"
	"github.com/actfort/actfort/internal/report"
)

func main() {
	var (
		subscribers = flag.Int("subscribers", 1_000_000, "population size")
		shardSize   = flag.Int("shard", population.DefaultShardSize, "subscribers per shard")
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		seed        = flag.Int64("seed", 42, "population/world seed")
		backend     = flag.String("backend", "table", "shared A5/1 cracker backend (table, bitsliced)")
		keyBits     = flag.Int("keybits", 12, "A5/1 session-key space bits")
		leak        = flag.Float64("leak", population.DefaultLeakFraction, "fraction of subscribers in leak databases")
		top         = flag.Int("top", 15, "services shown in the takeover ranking")
		quiet       = flag.Bool("quiet", false, "suppress progress output")
		jsonOut     = flag.Bool("json", false, "emit the summary as JSON instead of tables")

		// Single-run scenario knobs (ignored under -sweep).
		policy     = flag.String("policy", "", "countermeasure policy fortifying the catalog (none, unified-masking, harden-email, builtin-auth, fortify-all)")
		platform   = flag.String("platform", "both", "attacked platforms: web, mobile or both")
		a50        = flag.Float64("a50", 0.2, "fraction of victims on unencrypted (A5/0) cells")
		a53        = flag.Float64("a53", 0, "fraction of victims on A5/3-upgraded (uncrackable) cells")
		reauthSkip = flag.Float64("reauth-skip", 0.6, "probability a follow-up session reuses the victim's (RAND, Kc)")
		sessions   = flag.Int("sessions", 3, "OTP sessions sniffed per victim")
		receivers  = flag.Int("receivers", 16, "attacker receiver fleet size")
		channels   = flag.Int("channels", 0, "ARFCNs per serving cell (0 = fleet covers every channel)")
		segDomain  = flag.String("segment-domain", "", "restrict victims to subscribers of this service domain (e.g. fintech)")
		segLeak    = flag.String("segment-leak", "", "restrict victims to a leak cohort: leaked, clean, breach or wifi")

		// Sweep mode.
		sweep         = flag.Bool("sweep", false, "run a comparative scenario sweep over one shared population")
		scenarios     = flag.String("scenarios", "", "with -sweep: comma-separated built-in scenario names (empty = baseline,fortified,a53-mix)")
		scenarioFile  = flag.String("scenario-file", "", "with -sweep: JSON file holding the scenario list (overrides -scenarios)")
		sweepParallel = flag.Int("sweep-parallel", 1, "with -sweep: runs in flight at once, one per plan (policy and platform), sharing the one -workers shard budget (1 = sequential; results are identical either way)")

		// Durability and multi-process sharding.
		ckptDir       = flag.String("checkpoint-dir", "", "journal completed shards under this directory; rerunning resumes from the last journaled shard")
		snapshotEvery = flag.Int("snapshot-every", 0, "journaled shards between snapshot folds (0 = 64)")
		shardRange    = flag.String("shard-range", "", "own shard range K/M of a multi-process run (e.g. 0/2 and 1/2); requires -checkpoint-dir")
		merge         = flag.Bool("merge", false, "combine the range-*/summary.json partials under -checkpoint-dir instead of running")

		// Fault injection (the crash-recovery test harness) and retry.
		faultCrash     = flag.String("fault-crash", "", "injected crash spec: comma-separated point:hit pairs (points: journal.append, snapshot.write, snapshot.rename, journal.truncate)")
		faultTransient = flag.Float64("fault-transient", 0, "per-shard transient-failure rate in [0, 1)")
		faultPoison    = flag.String("fault-poison", "", "comma-separated shard indices that fail every attempt (quarantined)")
		faultSeed      = flag.Uint64("fault-seed", 1, "seed keying the transient-failure schedule")
		shardAttempts  = flag.Int("shard-attempts", 0, "attempts per failing shard before quarantine (0 = 3)")
		retryBackoff   = flag.Duration("retry-backoff", 0, "base delay before a shard retry, doubling per attempt (0 = none)")
		retryMax       = flag.Duration("retry-backoff-max", time.Second, "retry delay cap")

		// Observability.
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus), /debug/vars and /debug/pprof on this address (e.g. :9090; empty = off)")
		traceFile   = flag.String("trace-file", "", "append the shard-lifecycle event trace to this JSONL file")
		liveTicker  = flag.Bool("progress", false, "print a live one-line status ticker (shards, victims/s, coverage, ETA) from the metrics registry")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"Usage: campaign [flags]\n\n"+
				"Population-scale chain-reaction campaign over the simulated GSM air\n"+
				"interface. Full flag reference — including the scenario-JSON zero-value\n"+
				"convention (0 = paper default, negative = none, above 1 = error) — in\n"+
				"cmd/campaign/README.md.\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	// The library Configs read 0 as "use the default" and negative as
	// "off"; translate an explicitly passed 0 so `-a50 0` really means
	// no unencrypted cells (and likewise -leak/-a53/-reauth-skip) and
	// `-receivers 0` really means no interception fleet.
	zeroOff := map[string]*float64{
		"leak": leak, "a50": a50, "a53": a53, "reauth-skip": reauthSkip,
	}
	flag.Visit(func(f *flag.Flag) {
		if p, ok := zeroOff[f.Name]; ok && *p == 0 {
			*p = -1
		}
		if f.Name == "receivers" && *receivers == 0 {
			*receivers = -1
		}
	})
	prof, err := obs.StartProfiler(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
	err = run(runCfg{
		subscribers: *subscribers, shardSize: *shardSize, workers: *workers,
		seed: *seed, backend: *backend, keyBits: *keyBits, leak: *leak,
		top: *top, quiet: *quiet, jsonOut: *jsonOut,
		scenario: campaign.Scenario{
			Name:     "cli",
			Policy:   *policy,
			Platform: *platform,
			Radio: campaign.RadioEnv{
				A50Fraction: *a50, A53Fraction: *a53,
				ReauthSkip: *reauthSkip, OTPSessions: *sessions,
			},
			Budget:  campaign.AttackerBudget{Receivers: *receivers, CellChannels: *channels},
			Segment: campaign.VictimSegment{Domain: *segDomain, LeakTier: *segLeak},
		},
		sweep: *sweep, scenarios: *scenarios, scenarioFile: *scenarioFile,
		sweepParallel: *sweepParallel,
		ckptDir:       *ckptDir, snapshotEvery: *snapshotEvery, shardRange: *shardRange, merge: *merge,
		faultCrash: *faultCrash, faultTransient: *faultTransient,
		faultPoison: *faultPoison, faultSeed: *faultSeed,
		shardAttempts: *shardAttempts, retryBackoff: *retryBackoff, retryMax: *retryMax,
		metricsAddr: *metricsAddr, traceFile: *traceFile, liveTicker: *liveTicker,
	})
	// Flush profiles before any exit path — including the injected-crash
	// one, which is precisely the run a profile is usually wanted from.
	if perr := prof.Stop(); perr != nil {
		fmt.Fprintln(os.Stderr, "campaign:", perr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		if errors.Is(err, faultinject.ErrCrash) {
			// The injected crash stands in for a kill -9; exit the way
			// one would so crash-recovery harnesses can't tell them
			// apart.
			os.Exit(137)
		}
		os.Exit(1)
	}
}

type runCfg struct {
	subscribers, shardSize, workers, keyBits, top int
	seed                                          int64
	backend                                       string
	leak                                          float64
	quiet, jsonOut                                bool
	scenario                                      campaign.Scenario
	sweep                                         bool
	scenarios                                     string
	scenarioFile                                  string
	sweepParallel                                 int

	ckptDir        string
	snapshotEvery  int
	shardRange     string
	merge          bool
	faultCrash     string
	faultTransient float64
	faultPoison    string
	faultSeed      uint64
	shardAttempts  int
	retryBackoff   time.Duration
	retryMax       time.Duration

	metricsAddr string
	traceFile   string
	liveTicker  bool
}

// parseShardRange parses "K/M" into the process index and count.
func parseShardRange(spec string) (k, m int, err error) {
	if _, err := fmt.Sscanf(spec, "%d/%d", &k, &m); err != nil {
		return 0, 0, fmt.Errorf("shard range %q: want K/M (e.g. 0/2)", spec)
	}
	if m <= 0 || k < 0 || k >= m {
		return 0, 0, fmt.Errorf("shard range %q: want 0 <= K < M", spec)
	}
	return k, m, nil
}

// faultInjector builds the optional crash/fault harness from the CLI
// flags (nil when no fault flags were used).
func faultInjector(c runCfg) (*faultinject.Injector, error) {
	if c.faultCrash == "" && c.faultTransient == 0 && c.faultPoison == "" {
		return nil, nil
	}
	crash, err := faultinject.ParseCrash(c.faultCrash)
	if err != nil {
		return nil, err
	}
	poisoned, err := faultinject.ParseShardList(c.faultPoison)
	if err != nil {
		return nil, err
	}
	return faultinject.New(faultinject.Config{
		Seed:          c.faultSeed,
		Crash:         crash,
		TransientRate: c.faultTransient,
		Poisoned:      poisoned,
	})
}

// runMerge combines the per-range partial results under the checkpoint
// directory into the whole-population summary.
func runMerge(c runCfg) error {
	if c.ckptDir == "" {
		return fmt.Errorf("-merge requires -checkpoint-dir")
	}
	dirs, err := filepath.Glob(filepath.Join(c.ckptDir, "range-*-of-*"))
	if err != nil {
		return err
	}
	sort.Strings(dirs)
	if len(dirs) == 0 {
		return fmt.Errorf("no range-*-of-* checkpoint directories under %s (did the shard-range runs complete?)", c.ckptDir)
	}
	parts := make([]*campaign.Partial, 0, len(dirs))
	for _, d := range dirs {
		p, err := campaign.LoadPartial(d)
		if err != nil {
			return err
		}
		parts = append(parts, p)
	}
	merged, err := campaign.MergePartials(parts)
	if err != nil {
		return err
	}
	if c.jsonOut {
		return report.WriteJSON(os.Stdout, merged)
	}
	// The manifest pins the population inputs, so the service-name
	// table can be rebuilt without re-running anything.
	m := parts[0].Manifest
	pop, err := population.New(population.Config{
		Seed:            m.PopulationSeed,
		Size:            m.PopulationSize,
		ShardSize:       m.ShardSize,
		LeakFraction:    m.LeakFraction,
		EnrollmentScale: m.EnrollmentScale,
	})
	if err != nil {
		return err
	}
	fmt.Println(merged.Render(pop.Services(), c.top))
	return nil
}

// sweepList resolves the -sweep scenario selection.
func sweepList(c runCfg) ([]campaign.Scenario, error) {
	if c.scenarioFile != "" {
		f, err := os.Open(c.scenarioFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return campaign.LoadScenarios(f)
	}
	if c.scenarios == "" {
		return campaign.DefaultSweep(), nil
	}
	var out []campaign.Scenario
	for _, name := range strings.Split(c.scenarios, ",") {
		name = strings.TrimSpace(name)
		sc, ok := campaign.BuiltinScenario(name)
		if !ok {
			known := make([]string, 0, 8)
			for _, b := range campaign.BuiltinScenarios() {
				known = append(known, b.Name)
			}
			return nil, fmt.Errorf("unknown scenario %q (built-ins: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, sc)
	}
	return out, nil
}

// startTicker launches the -progress one-line status loop: it reads
// the run gauges the campaign aggregator maintains on the process-wide
// registry — the same series a /metrics scrape sees — and stops with
// ctx.
func startTicker(ctx context.Context) {
	go func() {
		t := time.NewTicker(2 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				val := func(name string) float64 {
					v, _ := obs.Default.Value(name)
					return v
				}
				subsDone := val("campaign_run_subscribers_done")
				subsTotal := val("campaign_run_subscribers_total")
				vps := val("campaign_victims_per_sec")
				eta := "?"
				if vps > 0 && subsTotal > subsDone {
					eta = (time.Duration((subsTotal - subsDone) / vps * float64(time.Second))).Round(time.Second).String()
				}
				fmt.Fprintf(os.Stderr,
					"campaign: %.0f/%.0f shards | %.0f/%.0f subscribers | %.0f victims/s | coverage %.3f | ETA %s\n",
					val("campaign_run_shards_done"), val("campaign_run_shards_total"),
					subsDone, subsTotal, vps, val("campaign_coverage_fraction"), eta)
			}
		}
	}()
}

func run(c runCfg) error {
	if c.merge {
		return runMerge(c)
	}
	// SIGINT/SIGTERM cancel the run instead of killing the process, so
	// profiles, the trace file and the metrics server unwind cleanly (a
	// checkpointed run resumes on rerun either way).
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	if c.metricsAddr != "" {
		obs.Default.PublishExpvar("actfort")
		obs.Default.StartRuntimePoller(ctx, 0)
		srv, err := obs.Default.Serve(ctx, c.metricsAddr, nil)
		if err != nil {
			return err
		}
		defer srv.Close()
		if !c.quiet {
			fmt.Fprintf(os.Stderr, "campaign: serving /metrics, /debug/vars, /debug/pprof on http://%s\n", srv.Addr())
		}
	}
	if c.liveTicker {
		startTicker(ctx)
	}
	pop, err := population.New(population.Config{
		Seed:         c.seed,
		Size:         c.subscribers,
		ShardSize:    c.shardSize,
		LeakFraction: c.leak,
	})
	if err != nil {
		return err
	}

	// Progress lines: single runs report bare percentages in 5% steps;
	// sweeps label every line with its scenario, in 20% steps, so
	// interleaved lines from overlapping scenarios (-sweep-parallel)
	// stay attributable. The per-scenario threshold state sits behind a
	// mutex because parallel scenarios report concurrently.
	var scenarioProgress func(scenario string, done, total int)
	if !c.quiet {
		step, label := 5, func(string) string { return "" }
		if c.sweep {
			step, label = 20, func(scenario string) string { return "[" + scenario + "] " }
		}
		var mu sync.Mutex
		lastPct := map[string]int{}
		scenarioProgress = func(scenario string, done, total int) {
			pct := done * 100 / total
			mu.Lock()
			defer mu.Unlock()
			last, ok := lastPct[scenario]
			if !ok {
				last = -1
			}
			if pct/step > last/step || done == total {
				lastPct[scenario] = pct
				fmt.Fprintf(os.Stderr, "campaign: %s%d/%d subscribers (%d%%)\n", label(scenario), done, total, pct)
			}
		}
	}

	fault, err := faultInjector(c)
	if err != nil {
		return err
	}
	cfg := campaign.Config{
		Population:       pop,
		Workers:          c.workers,
		Backend:          c.backend,
		KeyBits:          c.keyBits,
		ScenarioProgress: scenarioProgress,
		SweepParallel:    c.sweepParallel,
		MaxShardAttempts: c.shardAttempts,
		RetryBackoff:     c.retryBackoff,
		RetryBackoffMax:  c.retryMax,
		Fault:            fault,
	}
	if c.traceFile != "" {
		tw, err := obs.OpenTraceFile(c.traceFile)
		if err != nil {
			return err
		}
		defer func() {
			if err := tw.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "campaign: trace file: %v\n", err)
			}
		}()
		cfg.Trace = tw
	}
	rangeK, rangeM := 0, 1
	cfg.ShardHi = pop.NumShards()
	if c.shardRange != "" {
		if c.ckptDir == "" {
			return fmt.Errorf("-shard-range requires -checkpoint-dir (the partial result must land somewhere mergeable)")
		}
		rangeK, rangeM, err = parseShardRange(c.shardRange)
		if err != nil {
			return err
		}
		num := pop.NumShards()
		if rangeM > num {
			return fmt.Errorf("shard range %s: only %d shards to split", c.shardRange, num)
		}
		cfg.ShardLo = rangeK * num / rangeM
		cfg.ShardHi = (rangeK + 1) * num / rangeM
	}
	if c.ckptDir != "" {
		// Each process owns its own journal: range-K-of-M under the
		// shared checkpoint root (range-0-of-1 for single-process runs),
		// which is exactly the layout -merge globs.
		cfg.Checkpoint = &campaign.Checkpoint{
			Dir:           filepath.Join(c.ckptDir, fmt.Sprintf("range-%d-of-%d", rangeK, rangeM)),
			SnapshotEvery: c.snapshotEvery,
		}
	}
	eng, err := campaign.New(cfg)
	if err != nil {
		return err
	}
	if !c.quiet {
		fmt.Fprintf(os.Stderr, "campaign: %d subscribers, %d shards, backend %s\n",
			pop.Size(), pop.NumShards(), eng.Cracker().Name())
		if cfg.Checkpoint != nil {
			fmt.Fprintf(os.Stderr, "campaign: checkpointing shards [%d, %d) to %s\n",
				cfg.ShardLo, cfg.ShardHi, cfg.Checkpoint.Dir)
		}
	}

	if c.sweep {
		list, err := sweepList(c)
		if err != nil {
			return err
		}
		if !c.quiet {
			names := make([]string, 0, len(list))
			for _, sc := range list {
				names = append(names, sc.Name)
			}
			fmt.Fprintf(os.Stderr, "campaign: sweeping %d scenarios: %s\n", len(list), strings.Join(names, ", "))
		}
		sw, err := eng.RunSweep(ctx, list)
		if err != nil {
			return err
		}
		if c.jsonOut {
			return report.WriteJSON(os.Stdout, sw)
		}
		fmt.Println(sw.Render(pop.Services(), c.top))
		return nil
	}

	sum, err := eng.RunScenario(ctx, c.scenario)
	if err != nil {
		return err
	}
	if c.jsonOut {
		return report.WriteJSON(os.Stdout, sum)
	}
	fmt.Println(sum.Render(pop.Services(), c.top))
	return nil
}
