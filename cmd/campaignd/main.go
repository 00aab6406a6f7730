// Command campaignd is the resident campaign query service: it builds
// ONE campaign engine — population, shared A5/1 TMTO cracker table,
// plan cache, sniffer-rig pool — at startup and then answers scenario
// queries over HTTP for the life of the process, so the expensive
// amortizable state is paid once instead of per cmd/campaign
// invocation.
//
// Endpoints (one listener, one mux):
//
//	POST /v1/scenario   campaign.Scenario JSON → Summary JSON
//	POST /v1/sweep      scenario list (scenario-file format) → SweepSummary
//	GET  /v1/healthz    liveness: 200 once listening
//	GET  /v1/readyz     readiness: 200 only after engine warm-up
//	GET  /metrics       Prometheus text (plus /debug/vars, /debug/pprof)
//
// The listener comes up immediately (healthz green, readyz 503) while
// the population and cracker table build in the background; SetEngine
// flips readiness when warm-up completes. SIGTERM/SIGINT starts a
// graceful drain: readyz goes 503 so load balancers step away, new
// queries are refused, in-flight queries finish (bounded by
// -drain-timeout), then the process exits.
//
// Usage:
//
//	campaignd                                  # 100k subscribers on :8080
//	campaignd -subscribers 1000000 -addr :9000
//	campaignd -rate 50 -burst 100              # token-bucket admission, 429 beyond
//	campaignd -max-inflight 8 -request-timeout 30s
//	campaignd -trace-file trace.jsonl          # request + shard lifecycle JSONL
//
// The sibling cmd/campaignd/loadtest drives a running campaignd and
// reports p50/p90/p99 latency, throughput and error rate as JSON —
// the harness behind the docs/BENCHMARKS.md service-latency tables and
// the CI load-smoke gate.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/actfort/actfort/internal/campaign"
	"github.com/actfort/actfort/internal/obs"
	"github.com/actfort/actfort/internal/population"
	"github.com/actfort/actfort/internal/ratelimit"
	"github.com/actfort/actfort/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address for the query API and diagnostics")
		subscribers = flag.Int("subscribers", 100_000, "population size")
		shardSize   = flag.Int("shard", population.DefaultShardSize, "subscribers per shard")
		seed        = flag.Int64("seed", 42, "population/world seed")
		workers     = flag.Int("workers", 0, "engine shard worker pool (0 = GOMAXPROCS)")
		backend     = flag.String("backend", "table", "shared A5/1 cracker backend (table, bitsliced)")
		keyBits     = flag.Int("keybits", 12, "A5/1 session-key space bits")
		leak        = flag.Float64("leak", population.DefaultLeakFraction, "fraction of subscribers in leak databases")
		sweepPar    = flag.Int("sweep-parallel", 1, "runs in flight per /v1/sweep request, one per plan (policy and platform), sharing the -workers budget")

		rate        = flag.Float64("rate", 0, "query admission rate in requests/s (0 = unlimited); beyond -burst, requests are answered 429")
		burst       = flag.Int("burst", 0, "token-bucket burst for -rate (0 with -rate > 0 = rate rounded up)")
		maxInflight = flag.Int("max-inflight", 0, "queries running at once; more queue until a slot or their deadline (0 = -workers, then GOMAXPROCS)")
		reqTimeout  = flag.Duration("request-timeout", 2*time.Minute, "per-query deadline, queue wait included (0 = none)")
		drainT      = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound after SIGTERM before in-flight queries are abandoned")

		traceFile = flag.String("trace-file", "", "append request + shard lifecycle events to this JSONL file")
		quiet     = flag.Bool("quiet", false, "suppress startup progress output")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"Usage: campaignd [flags]\n\n"+
				"Resident campaign query service: one engine (population + A5/1 TMTO\n"+
				"table + rig pool) built at startup, scenario queries over HTTP after.\n"+
				"Endpoint and operations reference in cmd/campaignd/README.md.\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(runCfg{
		addr: *addr, subscribers: *subscribers, shardSize: *shardSize,
		seed: *seed, workers: *workers, backend: *backend, keyBits: *keyBits,
		leak: *leak, sweepParallel: *sweepPar,
		rate: *rate, burst: *burst, maxInflight: *maxInflight,
		requestTimeout: *reqTimeout, drainTimeout: *drainT,
		traceFile: *traceFile, quiet: *quiet,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		os.Exit(1)
	}
}

type runCfg struct {
	addr                            string
	subscribers, shardSize, workers int
	keyBits, sweepParallel, burst   int
	seed                            int64
	backend                         string
	leak, rate                      float64
	maxInflight                     int
	requestTimeout, drainTimeout    time.Duration
	traceFile                       string
	quiet                           bool
}

func run(c runCfg) error {
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	var tw *obs.TraceWriter
	if c.traceFile != "" {
		var err error
		if tw, err = obs.OpenTraceFile(c.traceFile); err != nil {
			return err
		}
		defer func() {
			if err := tw.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "campaignd: trace file: %v\n", err)
			}
		}()
	}

	burst := c.burst
	if burst <= 0 && c.rate > 0 {
		burst = int(c.rate) + 1
	}
	maxInflight := c.maxInflight
	if maxInflight <= 0 {
		maxInflight = c.workers // 0 falls through to GOMAXPROCS in server.New
	}
	srv := server.New(server.Config{
		Limiter:        ratelimit.New(c.rate, burst),
		MaxInFlight:    maxInflight,
		RequestTimeout: c.requestTimeout,
		Trace:          tw,
	})

	// The listener comes up before the engine: healthz answers
	// immediately, readyz (and the query endpoints) say 503 until
	// warm-up delivers the engine below.
	obs.Default.PublishExpvar("actfort")
	obs.Default.StartRuntimePoller(ctx, 0)
	mux := obs.Default.NewMux()
	srv.Register(mux)
	httpSrv, err := obs.Default.Serve(ctx, c.addr, mux)
	if err != nil {
		return err
	}
	httpSrv.ShutdownTimeout = c.drainTimeout
	defer httpSrv.Close()
	if !c.quiet {
		fmt.Fprintf(os.Stderr, "campaignd: listening on http://%s (engine warming up)\n", httpSrv.Addr())
	}

	// Engine warm-up: population + cracker table. Run on the main
	// goroutine — there is nothing else to do until it finishes, and a
	// build error should stop the process before it ever reports ready.
	warm := time.Now()
	pop, err := population.New(population.Config{
		Seed: c.seed, Size: c.subscribers, ShardSize: c.shardSize,
		LeakFraction: c.leak,
	})
	if err != nil {
		return err
	}
	eng, err := campaign.New(campaign.Config{
		Population:    pop,
		Workers:       c.workers,
		Backend:       c.backend,
		KeyBits:       c.keyBits,
		SweepParallel: c.sweepParallel,
		Trace:         tw,
	})
	if err != nil {
		return err
	}
	srv.SetEngine(eng)
	if !c.quiet {
		fmt.Fprintf(os.Stderr,
			"campaignd: ready — %d subscribers, %d shards, backend %s (warm-up %s)\n",
			pop.Size(), pop.NumShards(), eng.Cracker().Name(),
			time.Since(warm).Round(time.Millisecond))
	}

	// Serve until the first SIGTERM/SIGINT, then drain: stop admitting,
	// let in-flight queries finish (bounded), and shut the listener
	// down gracefully.
	<-ctx.Done()
	if !c.quiet {
		fmt.Fprintln(os.Stderr, "campaignd: draining")
	}
	srv.StartDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), c.drainTimeout)
	defer cancel()
	if !srv.Drain(drainCtx) {
		fmt.Fprintln(os.Stderr, "campaignd: drain timeout — abandoning in-flight queries")
	}
	return httpSrv.Close()
}
