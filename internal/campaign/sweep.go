package campaign

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/actfort/actfort/internal/checkpoint"
	"github.com/actfort/actfort/internal/faultinject"
	"github.com/actfort/actfort/internal/report"
)

// ScenarioResult pairs a scenario with its summary — or, when the
// scenario failed at runtime, with the error that stopped it. A sweep
// records the error and keeps going: one misconfigured scenario must
// not cost the hours the others already ran.
type ScenarioResult struct {
	Scenario Scenario `json:"scenario"`
	Summary  *Summary `json:"summary,omitempty"`
	Error    string   `json:"error,omitempty"`
	// Duration is the wall clock of the run that carried this scenario,
	// shared by every scenario of one plan. Under a parallel sweep the
	// sweep's Duration stops being the runs' sum, so the per-run cost
	// lives here.
	Duration time.Duration `json:"duration,omitempty"`
}

// SweepSummary is the comparative output of RunSweep: one result per
// scenario over the same population, plus the shared-resource
// identifiers. The first scenario is the comparison baseline.
type SweepSummary struct {
	// Subscribers is the shared population size.
	Subscribers int64 `json:"subscribers"`
	// Backend names the one cracker every scenario shared; Workers the
	// pool width; RigsBuilt how many sniffer rigs the sweep constructed
	// (at most the worker count: rigs live in the engine's shard slots).
	Backend   string `json:"backend"`
	Workers   int    `json:"workers"`
	RigsBuilt int64  `json:"rigsBuilt"`
	// Results holds one entry per scenario, in execution order.
	Results []ScenarioResult `json:"results"`
	// Duration is the whole sweep's wall clock.
	Duration time.Duration `json:"duration"`
}

// Baseline returns the first completed scenario's summary (nil when
// every scenario errored or the sweep is empty).
func (s *SweepSummary) Baseline() *Summary {
	for _, r := range s.Results {
		if r.Summary != nil {
			return r.Summary
		}
	}
	return nil
}

// RunSweep executes the scenarios against the engine's shared
// population, cracker table and shard slots, and returns the comparative
// summary. A nil or empty list runs DefaultSweep. Scenario names must
// be unique — the comparative tables key on them.
//
// Scenarios that share a plan key — policy and platform — run as one
// run (at most maxRunMembers to a run): a shard's chain reaction
// depends only on the plan and the population, so the run solves each
// intercepted victim once however many of its scenarios intercepted
// it, and radio environment, budget and segment only decide whose
// lanes each scenario's Summary counts. Every Summary equals the one
// RunScenario returns for that scenario alone.
//
// Config.SweepParallel > 1 overlaps that many runs, all sharing the one
// Workers-bounded shard budget; Results stays in input order and every
// per-scenario Summary is byte-identical (modulo wall-clock fields) to
// a sequential sweep's, so parallelism only ever changes cost, never
// results. Environmental failures — a canceled context, an injected
// crash (treated as process death) or a checkpoint directory whose
// inputs changed — abort the whole sweep, naming the scenario whose
// journal crashed; any other error, a journal failure in a grouped run
// included, is scenario-local: it is recorded in that scenario's result
// row and the rest of the sweep keeps its results, exactly like the
// sequential semantics.
func (e *Engine) RunSweep(ctx context.Context, scenarios []Scenario) (*SweepSummary, error) {
	if len(scenarios) == 0 {
		scenarios = DefaultSweep()
	}
	norm, err := normalizeSweepList(scenarios)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rigs0 := e.rigsBuilt.Load()
	sw := &SweepSummary{
		Subscribers: int64(e.cfg.Population.Size()),
		Backend:     e.cracker.Name(),
		Workers:     e.cfg.Workers,
		Results:     make([]ScenarioResult, len(norm)),
	}
	groups := planGroups(norm)
	par := min(max(e.cfg.SweepParallel, 1), len(groups))
	// runCtx cancels the in-flight runs when one fails environmentally;
	// the launcher stops admitting new ones. sem (not a fixed worker
	// pool) keeps admission in order of each group's first scenario,
	// which with par == 1 reproduces the sequential execution order
	// exactly.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, par)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		abortIdx = len(norm)
		abortErr error
	)
	for _, g := range groups {
		select {
		case sem <- struct{}{}:
		case <-runCtx.Done():
		}
		if runCtx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(g []int) {
			defer wg.Done()
			defer func() { <-sem }()
			scs, dirs := make([]Scenario, len(g)), make([]string, len(g))
			for k, i := range g {
				scs[k] = norm[i]
				if e.cfg.Checkpoint != nil {
					dirs[k] = filepath.Join(e.cfg.Checkpoint.Dir, norm[i].Name)
				}
			}
			runStart := time.Now()
			sums, errs := e.runPlan(runCtx, scs, dirs)
			d := time.Since(runStart)
			mu.Lock()
			defer mu.Unlock()
			for k, i := range g {
				sc, sum, err := scs[k], sums[k], errs[k]
				if err == nil {
					sw.Results[i] = ScenarioResult{Scenario: sc, Summary: sum, Duration: d}
					continue
				}
				rootCause := ctx.Err() != nil || errors.Is(err, faultinject.ErrCrash) || errors.Is(err, checkpoint.ErrManifestMismatch)
				if rootCause || runCtx.Err() != nil {
					// Environmental: abort everything. The reported error
					// is the lowest-index root cause; scenarios that merely
					// died of the resulting runCtx cancellation are not
					// causes.
					if rootCause && i < abortIdx {
						abortIdx, abortErr = i, fmt.Errorf("campaign: scenario %s: %w", sc.Name, err)
					}
					cancel()
					continue
				}
				sw.Results[i] = ScenarioResult{Scenario: sc, Error: err.Error(), Duration: d}
			}
		}(g)
	}
	wg.Wait()
	if abortErr != nil {
		return nil, abortErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The rig-build count is this sweep's delta, not the engine's
	// lifetime counter: a sweep on a warm engine reports only the builds
	// it actually caused.
	sw.RigsBuilt = e.rigsBuilt.Load() - rigs0
	sw.Duration = time.Since(start)
	return sw, nil
}

// planGroups partitions a normalized sweep list into runs: the indices
// of the scenarios sharing a plan key, in input order, at most
// maxRunMembers to a run, the runs ordered by their first scenario.
func planGroups(norm []Scenario) [][]int {
	var groups [][]int
	open := make(map[planKey]int) // the key's run still taking members
	for i, sc := range norm {
		key := planKeyOf(sc)
		g, ok := open[key]
		if !ok || len(groups[g]) == maxRunMembers {
			g = len(groups)
			groups = append(groups, nil)
			open[key] = g
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// delta renders a fortified count against its baseline as
// "-1,234 (-56.78%)". Exact ties render "±0" (no vacuous percent), and
// growth from a zero baseline renders "+N (new)" — a percentage against
// nothing is meaningless.
func delta(base, val int64) string {
	d := val - base
	if d == 0 {
		return "±0"
	}
	sign := "+"
	if d < 0 {
		sign = "" // comma keeps the minus
	}
	if base == 0 {
		return fmt.Sprintf("%s%s (new)", sign, comma(d))
	}
	return fmt.Sprintf("%s%s (%+.2f%%)", sign, comma(d), 100*float64(d)/float64(base))
}

// Render writes the comparative report: the sweep header, the
// per-scenario takeover-mass table with deltas against the baseline
// (the first scenario), and the per-service takeover deltas for the
// top baseline services — the fortification-evaluation view of the
// paper's second half.
func (s *SweepSummary) Render(services []string, top int) string {
	if len(s.Results) == 0 {
		return "sweep: no scenarios\n"
	}
	base := s.Baseline()
	out := &report.Table{
		Title:   "Fortification sweep — shared population, shared cracker table",
		Headers: []string{"metric", "value"},
	}
	out.AddRow("subscribers", comma(s.Subscribers))
	out.AddRow("scenarios", strconv.Itoa(len(s.Results)))
	out.AddRow("cracker backend", s.Backend)
	out.AddRow("workers", strconv.Itoa(s.Workers))
	out.AddRow("sniffer rigs built", strconv.FormatInt(s.RigsBuilt, 10))
	if s.Duration > 0 {
		out.AddRow("duration", s.Duration.Round(time.Millisecond).String())
	}
	text := out.String() + "\n"

	baseName := "-"
	if base != nil {
		baseName = base.Scenario
	}
	cmp := &report.Table{
		Title: fmt.Sprintf("Takeover mass by scenario (baseline: %q)", baseName),
		Headers: []string{"scenario", "policy", "targeted", "intercepted",
			"victims lost", "accounts lost", "Δ accounts vs baseline", "duration"},
	}
	for _, r := range s.Results {
		dur := r.Duration.Round(time.Millisecond).String()
		if r.Error != "" {
			cmp.AddRow(r.Scenario.Name, "-", "-", "-", "-", "-", "ERROR: "+r.Error, dur)
			continue
		}
		sum := r.Summary
		pol := sum.Policy
		if pol == "" {
			pol = "none"
		}
		d := "baseline"
		if sum != base {
			d = delta(base.AccountsCompromised, sum.AccountsCompromised)
		}
		cmp.AddRow(sum.Scenario, pol, comma(sum.Targeted), comma(sum.Intercepted),
			fmt.Sprintf("%s (%s)", comma(sum.VictimsCompromised), report.Pct(pct(sum.VictimsCompromised, sum.Subscribers))),
			comma(sum.AccountsCompromised), d, dur)
	}
	text += cmp.String() + "\n"
	if base != nil {
		text += s.serviceDeltas(services, top).String()
	}
	return text
}

// serviceDeltas ranks the baseline's top services by takeovers and
// shows every scenario's count next to them — the per-service view of
// what each fortification program actually protected.
func (s *SweepSummary) serviceDeltas(services []string, top int) *report.Table {
	if top <= 0 {
		top = 15
	}
	base := s.Baseline()
	type row struct {
		idx   int
		count int64
	}
	rows := make([]row, 0, len(base.ServiceTakeovers))
	for i, c := range base.ServiceTakeovers {
		if c > 0 {
			rows = append(rows, row{idx: i, count: c})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].count != rows[j].count {
			return rows[i].count > rows[j].count
		}
		return serviceName(services, rows[i].idx) < serviceName(services, rows[j].idx)
	})
	if len(rows) > top {
		rows = rows[:top]
	}
	headers := []string{"service"}
	for _, r := range s.Results {
		headers = append(headers, r.Scenario.Name)
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Per-service takeovers — top %d baseline services across scenarios", len(rows)),
		Headers: headers,
	}
	for _, r := range rows {
		cells := []string{serviceName(services, r.idx)}
		for _, res := range s.Results {
			if res.Summary == nil {
				cells = append(cells, "-")
				continue
			}
			c := int64(0)
			if r.idx < len(res.Summary.ServiceTakeovers) {
				c = res.Summary.ServiceTakeovers[r.idx]
			}
			cell := comma(c)
			if res.Summary != base && r.count > 0 {
				cell += fmt.Sprintf(" (%+.1f%%)", 100*float64(c-r.count)/float64(r.count))
			}
			cells = append(cells, cell)
		}
		t.AddRow(cells...)
	}
	return t
}

// serviceName resolves a catalog index to its display name.
func serviceName(services []string, i int) string {
	if i < len(services) {
		return services[i]
	}
	return fmt.Sprintf("service-%d", i)
}
