package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"github.com/actfort/actfort/internal/campaign"
	"github.com/actfort/actfort/internal/population"
	"github.com/actfort/actfort/internal/report"
)

// inproc is a workload that drives the engine inside this process, the
// way cmd/campaign does. One operation is a RunScenario (one scenario)
// or a RunSweep (several).
type inproc struct {
	size          int
	sweepParallel int
	setupReps     int
	// warm ends every set-up with an untimed baseline run, so the
	// harvest is done before the first timed operation.
	warm bool
	// cold builds a fresh engine before every operation, so each one pays
	// the harvest.
	cold      bool
	scenarios []string
}

// builtins resolves built-in scenario names.
func builtins(names []string) ([]campaign.Scenario, error) {
	out := make([]campaign.Scenario, len(names))
	for i, n := range names {
		sc, ok := campaign.BuiltinScenario(n)
		if !ok {
			return nil, fmt.Errorf("no built-in scenario %q", n)
		}
		out[i] = sc
	}
	return out, nil
}

// buildEngine is a workload's set-up: the population generator and the
// engine over it, with the table backend and 12-bit keys campaignd and
// cmd/campaign default to.
func buildEngine(rc *runCtx, parent, size, shard, sweepParallel int) (*population.Population, *campaign.Engine, error) {
	sp := rc.tr.begin(rc.workload, "population.New", parent)
	pop, err := population.New(population.Config{Seed: rc.seed, Size: size, ShardSize: shard})
	rc.tr.end(sp, map[string]float64{"subs": float64(size)})
	if err != nil {
		return nil, nil, err
	}
	sp = rc.tr.begin(rc.workload, "campaign.New", parent)
	eng, err := campaign.New(campaign.Config{
		Population: pop, Workers: runtime.GOMAXPROCS(0), Backend: "table", KeyBits: 12,
		SweepParallel: sweepParallel,
	})
	rc.tr.end(sp, nil)
	return pop, eng, err
}

// renderTraced renders an operation's answer as campaignd would and
// returns its digest; the render is the report layer's span.
func (rc *runCtx) renderTraced(v any, parent int) (string, error) {
	sp := rc.tr.begin(rc.workload, "report.JSON", parent)
	b, err := report.JSON(v)
	rc.tr.end(sp, map[string]float64{"bytes": float64(len(b))})
	if err != nil {
		return "", err
	}
	return digestJSON(b)
}

func (w inproc) run(rc *runCtx, res *result) error {
	scs, err := builtins(w.scenarios)
	if err != nil {
		return err
	}
	var (
		pop    *population.Population
		eng    *campaign.Engine
		setups []float64
	)
	setup := func() error {
		pop, eng = nil, nil
		runtime.GC() // the previous engine's memory is not this set-up's
		t0 := time.Now()
		sp := rc.tr.begin(rc.workload, "setup", 0)
		p, e, err := buildEngine(rc, sp, w.size, 0, w.sweepParallel)
		var warm *campaign.Summary
		if err == nil && w.warm {
			ws := rc.tr.begin(rc.workload, "campaign.Engine.RunScenario", sp)
			warm, err = e.RunScenario(rc.ctx, scs[0])
			rc.tr.end(ws, nil)
		}
		rc.tr.end(sp, nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		pop, eng = p, e
		if warm != nil {
			// The warm-up run is cold, the sweep's baseline warm: equal
			// inputs, so their answers must digest equal.
			d, err := digestOf(warm)
			if err != nil {
				return err
			}
			if !res.record(warm.Scenario, d) {
				return fmt.Errorf("set-up: warm-up answers differ between set-ups")
			}
		}
		return nil
	}
	for range w.setupReps {
		if err := setup(); err != nil {
			return err
		}
	}

	var (
		opMs       []float64
		subs, rigs int64
		okOps      int
		opWall     time.Duration
		first, all []*campaign.Summary
		ms0, ms1   runtime.MemStats
	)
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; ; i++ {
		if i > 0 && w.cold {
			if err := setup(); err != nil {
				return err
			}
		}
		rigs0 := eng.RigsBuilt()
		sums, answer, d, err := w.op(rc, eng, scs)
		res.Attempted++
		rigs += eng.RigsBuilt() - rigs0
		opWall += d
		if ok := w.check(rc, res, sums, answer, err); !ok {
			res.Failed++
			opMs = append(opMs, math.Inf(1))
		} else {
			opMs = append(opMs, float64(d)/1e6)
			okOps++
			for _, s := range sums {
				subs += s.Subscribers
			}
			if first == nil {
				first = sums
			}
			all = append(all, sums...)
		}
		// Stop when one more operation would end more than half an
		// operation past the window: the count of operations then stays
		// the same from run to run unless the operation time nears a
		// boundary (window/1.5, window/2.5, ...).
		if time.Since(start)+d/2 > rc.seconds {
			break
		}
	}
	runtime.ReadMemStats(&ms1)

	res.Metrics["setup_s"] = median(setups)
	res.Metrics["latency_p50_ms"] = finite(quantile(opMs, 0.5))
	res.Metrics["latency_p90_ms"] = finite(quantile(opMs, 0.9))
	res.Metrics["victims_per_s"] = float64(subs) / opWall.Seconds()
	res.Metrics["peak_rss_mb"] = peakRSSMB()
	res.setRaw("setup_s", setups)
	res.setRaw("op_ms", opMs)
	if rc.tr == nil || first == nil {
		return nil
	}

	m := res.LayerMetrics
	m["population.new_s"] = median(rc.tr.durations("population.New"))
	m["campaign.new_s"] = median(rc.tr.durations("campaign.New"))
	ops := float64(okOps)
	engineMetrics(all, opWall, ops, m)
	m["campaign.rigs_built"] = float64(rigs) / ops
	m["server.request_ms"] = finite(mean(opMs))
	m["report.render_ms"] = mean(rc.tr.durations("report.JSON")) * 1e3
	m["runtime.alloc_bytes_per_sub"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(subs))
	m["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)

	// RunSweep normalizes its list and each run normalizes its scenario
	// again, so a sweep scenario's "none" (negative) radio fraction
	// reaches the run as the paper default. The replay times the work the
	// engine did, so it replays sweep scenarios normalized the same way.
	runAs := scs
	if len(scs) > 1 {
		if runAs, err = campaign.NormalizeSweep(scs); err != nil {
			return err
		}
	}
	return replayCheck(rc, res, pop, eng, runAs, first)
}

// replayCheck replays scenarios over pop and fails the run unless the
// replay's counts equal the engine's Summaries; the replay's spans give
// the per-layer metrics.
func replayCheck(rc *runCtx, res *result, pop *population.Population, eng *campaign.Engine, scs []campaign.Scenario, want []*campaign.Summary) error {
	rp, err := newReplayer(pop, eng, runtime.GOMAXPROCS(0), rc.tr, rc.workload)
	if err != nil {
		return err
	}
	st, bad, err := rp.replayAll(scs, want, 0)
	if err != nil {
		return err
	}
	res.Attempted += len(scs)
	res.Failed += len(bad)
	for _, b := range bad {
		res.failf("%s", b)
	}
	replayMetrics(rc.tr, st, res.LayerMetrics)
	return nil
}

// op runs one timed operation and returns each scenario's Summary, the
// answer a user gets (a Summary or a SweepSummary) and its wall clock.
func (w inproc) op(rc *runCtx, eng *campaign.Engine, scs []campaign.Scenario) ([]*campaign.Summary, any, time.Duration, error) {
	if len(scs) == 1 {
		sp := rc.tr.begin(rc.workload, "campaign.Engine.RunScenario", 0)
		t0 := time.Now()
		sum, err := eng.RunScenario(rc.ctx, scs[0])
		d := time.Since(t0)
		rc.tr.end(sp, nil)
		return []*campaign.Summary{sum}, sum, d, err
	}
	sp := rc.tr.begin(rc.workload, "campaign.Engine.RunSweep", 0)
	t0 := time.Now()
	sw, err := eng.RunSweep(rc.ctx, scs)
	d := time.Since(t0)
	rc.tr.end(sp, nil)
	if err != nil {
		return nil, nil, d, err
	}
	sums := make([]*campaign.Summary, len(sw.Results))
	for i, r := range sw.Results {
		if r.Error != "" {
			return nil, nil, d, fmt.Errorf("scenario %s: %s", r.Scenario.Name, r.Error)
		}
		sums[i] = r.Summary
	}
	return sums, sw, d, nil
}

// check verifies one operation's answer: every scenario's invariants,
// and digests equal to those of every earlier answer to the same
// inputs in this run.
func (w inproc) check(rc *runCtx, res *result, sums []*campaign.Summary, answer any, err error) bool {
	if err != nil {
		res.failf("operation: %v", err)
		return false
	}
	ok := true
	for _, s := range sums {
		for _, b := range checkScenario(s, sums[0], w.size) {
			res.failf("%s", b)
			ok = false
		}
	}
	d, err := rc.renderTraced(answer, 0)
	if err != nil {
		res.failf("%v", err)
		return false
	}
	if len(sums) == 1 {
		return res.record(sums[0].Scenario, d) && ok
	}
	ok = res.record("sweep", d) && ok
	// Per-scenario digests too: the set-up's cold baseline run must
	// match the sweep's warm one.
	for _, s := range sums {
		d, err := digestOf(s)
		if err != nil {
			res.failf("%v", err)
			return false
		}
		ok = res.record(s.Scenario, d) && ok
	}
	return ok
}

// engineMetrics folds the engine's own per-run accounting — run wall
// clock and per-phase totals — into per-operation layer metrics. The
// phases are made exclusive (crack runs inside feed), and the residual
// is the worker time no phase accounts for: shard generation, harvest,
// rig checkout and waiting for the shard budget.
func engineMetrics(sums []*campaign.Summary, wall time.Duration, ops float64, m map[string]float64) {
	phase := make(map[string]float64)
	run, workers := 0.0, 0
	for _, s := range sums {
		run += s.Duration.Seconds()
		workers = s.Workers
		for _, p := range s.PhaseTimings {
			phase[p.Phase] += p.Total.Seconds()
		}
	}
	busy := phase["synth"] + phase["encrypt"] + phase["feed"] + phase["closure"] + phase["aggregate"]
	m["campaign.run_s"] = run / ops
	m["campaign.synth_s"] = phase["synth"] / ops
	m["campaign.encrypt_s"] = phase["encrypt"] / ops
	m["campaign.feed_self_s"] = (phase["feed"] - phase["crack"]) / ops
	m["campaign.crack_s"] = phase["crack"] / ops
	m["campaign.closure_s"] = phase["closure"] / ops
	m["campaign.aggregate_s"] = phase["aggregate"] / ops
	m["campaign.residual_s"] = (run*float64(workers) - busy) / ops
	m["campaign.runs_inflight_mean"] = run / wall.Seconds()
}

// peakRSSMB is this process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
