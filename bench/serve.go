package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/actfort/actfort/internal/campaign"
	"github.com/actfort/actfort/internal/population"
	"github.com/actfort/actfort/internal/server"
)

// The serve workload is query traffic against a campaignd subprocess
// from serveClients clients that each send their next query as soon as
// the previous answer arrives (a closed loop), each over its own
// keep-alive connection, so both cores stay busy and two queries at a
// time share the engine's shard budget.
//
// An open loop was tried first: on a shared 2-vCPU VM, p90 latency
// under seeded Poisson arrivals spread by 30-47% between runs, and under
// evenly spaced arrivals by 16%, because the idle gaps between queries
// let the host deschedule the VM; the closed loop spread by 6.6%.

const (
	// Twenty 256-subscriber shards per query: two overlapping queries
	// interleave at a grain fine enough that latency repeats run to run
	// (with shards of the default 4096 subscribers it varied by a
	// quarter). A solo query takes about 50 ms on two cores, so a run
	// holds a few hundred of them.
	serveSubscribers = 5_000
	serveShard       = 256
	serveSetupReps   = 3
	serveClients     = 2 // nproc here: one query per core
)

// serveTarget is one entry of the request mix.
type serveTarget struct {
	name   string
	path   string
	body   []byte
	weight int
	sweep  bool
	ref    string // digest of the reference answer
}

// mixedTargets is cmd/campaignd/loadtest's "mixed" mix: baseline and
// fortified scenario queries and a baseline-vs-fortified sweep at 2:2:1.
func mixedTargets() ([]serveTarget, error) {
	scs, err := builtins([]string{"baseline", "fortified"})
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, 3)
	for i, v := range []any{scs[0], scs[1], scs} {
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return []serveTarget{
		{name: "scenario:baseline", path: "/v1/scenario", body: bodies[0], weight: 2},
		{name: "scenario:fortified", path: "/v1/scenario", body: bodies[1], weight: 2},
		{name: "sweep:baseline-vs-fortified", path: "/v1/sweep", body: bodies[2], weight: 1, sweep: true},
	}, nil
}

// reference answers every target in-process on an engine identical to
// campaignd's and stores each answer's digest in its target. It returns
// the population, the engine and the scenario Summaries (baseline,
// fortified), which a traced run replays.
func reference(rc *runCtx, targets []serveTarget) (*population.Population, *campaign.Engine, []*campaign.Summary, error) {
	sp := rc.tr.begin(rc.workload, "reference", 0)
	defer rc.tr.end(sp, nil)
	pop, eng, err := buildEngine(rc, sp, serveSubscribers, serveShard, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	var sums []*campaign.Summary
	for i := range targets {
		t := &targets[i]
		var answer any
		if t.sweep {
			list, err := server.DecodeSweep(bytes.NewReader(t.body))
			if err != nil {
				return nil, nil, nil, err
			}
			if answer, err = eng.RunSweep(rc.ctx, list); err != nil {
				return nil, nil, nil, err
			}
		} else {
			sc, err := server.DecodeScenario(bytes.NewReader(t.body))
			if err != nil {
				return nil, nil, nil, err
			}
			sum, err := eng.RunScenario(rc.ctx, sc)
			if err != nil {
				return nil, nil, nil, err
			}
			sums = append(sums, sum)
			answer = sum
		}
		if t.ref, err = rc.renderTraced(answer, sp); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, s := range sums {
		if bad := checkScenario(s, sums[0], serveSubscribers); len(bad) > 0 {
			return nil, nil, nil, fmt.Errorf("reference answers: %s", strings.Join(bad, "; "))
		}
	}
	return pop, eng, sums, nil
}

// mixer deals the request mix's targets to the clients: blocks that
// hold each target its weight's number of times, shuffled by the seed.
// The sequence of queries is a pure function of the seed, and every
// prefix is within one block of the exact proportions.
type mixer struct {
	mu      sync.Mutex
	rng     *rand.Rand
	weights []int
	block   []int
}

func newMixer(seed int64, targets []serveTarget) *mixer {
	m := &mixer{rng: rand.New(rand.NewPCG(uint64(seed), 0x6d69786572))}
	for _, t := range targets {
		m.weights = append(m.weights, t.weight)
	}
	return m
}

// next returns the target of the next query.
func (m *mixer) next() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.block) == 0 {
		for t, w := range m.weights {
			for range w {
				m.block = append(m.block, t)
			}
		}
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	t := m.block[0]
	m.block = m.block[1:]
	return t
}

// sample is one query's timeline and answer.
type sample struct {
	target      int
	start, done time.Time
	status      int
	body        []byte
	err         error
}

// runClients runs the closed loop: each client sends queries back to
// back until window has passed, and every query's sample is returned
// once all clients have stopped.
func runClients(ctx context.Context, client *http.Client, base string, targets []serveTarget, mix *mixer, clients int, window time.Duration) []sample {
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	start := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < window && ctx.Err() == nil {
				s := sample{target: mix.next(), start: time.Now()}
				t := targets[s.target]
				s.status, s.body, s.err = post(ctx, client, base+t.path, t.body)
				s.done = time.Now()
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// post sends one JSON query and reads the whole answer.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// queryResults is what a run's queries add up to.
type queryResults struct {
	latMs []float64
	subs  int64
	ok    int
	wall  time.Duration
	sums  []*campaign.Summary
}

// evalQueries checks every answer against its target's reference digest
// and folds the samples into latencies. A failed query counts as
// missing every latency limit. The wall clock runs from the first
// query sent to the last answer read.
func evalQueries(rc *runCtx, res *result, targets []serveTarget, samples []sample) queryResults {
	var r queryResults
	if len(samples) == 0 {
		return r
	}
	first, last := samples[0].start, samples[0].done
	for i, s := range samples {
		t := targets[s.target]
		res.Attempted++
		if s.start.Before(first) {
			first = s.start
		}
		if s.done.After(last) {
			last = s.done
		}
		rc.tr.record(fmt.Sprintf("q%d", i), "client.query", 0, s.start, s.done,
			map[string]float64{"target": float64(s.target), "status": float64(s.status)})
		if why := checkAnswer(s, t); why != "" {
			res.Failed++
			res.failf("query %d (%s): %s", i, t.name, why)
			r.latMs = append(r.latMs, math.Inf(1))
			continue
		}
		r.ok++
		r.latMs = append(r.latMs, float64(s.done.Sub(s.start))/1e6)
		sums, err := decodeAnswer(s.body, t.sweep)
		if err != nil {
			res.Failed++
			res.failf("query %d (%s): %v", i, t.name, err)
			continue
		}
		for _, sum := range sums {
			r.subs += sum.Subscribers
		}
		r.sums = append(r.sums, sums...)
	}
	r.wall = last.Sub(first)
	return r
}

// checkAnswer says why a query failed, or "" if it answered 200 with
// the reference answer.
func checkAnswer(s sample, t serveTarget) string {
	switch {
	case s.err != nil:
		return s.err.Error()
	case s.status != http.StatusOK:
		return fmt.Sprintf("status %d: %s", s.status, bytes.TrimSpace(s.body))
	}
	d, err := digestJSON(s.body)
	if err != nil {
		return err.Error()
	}
	if d != t.ref {
		return fmt.Sprintf("digest %.12s, reference %.12s", d, t.ref)
	}
	return ""
}

// decodeAnswer returns the scenario Summaries of a query's answer.
func decodeAnswer(body []byte, sweep bool) ([]*campaign.Summary, error) {
	if !sweep {
		var s campaign.Summary
		if err := json.Unmarshal(body, &s); err != nil {
			return nil, err
		}
		return []*campaign.Summary{&s}, nil
	}
	var sw campaign.SweepSummary
	if err := json.Unmarshal(body, &sw); err != nil {
		return nil, err
	}
	var out []*campaign.Summary
	for _, r := range sw.Results {
		out = append(out, r.Summary)
	}
	return out, nil
}

// runServe runs the serve workload.
func runServe(rc *runCtx, res *result) error {
	targets, err := mixedTargets()
	if err != nil {
		return err
	}
	refPop, refEng, refSums, err := reference(rc, targets)
	if err != nil {
		return err
	}
	if rc.tr == nil {
		refPop, refEng = nil, nil // only the replay needs them
	}
	runtime.GC()

	// The control client (readiness, warm-up, scrapes) stays off the
	// load's connections.
	ctl := &http.Client{Timeout: 10 * time.Second}
	defer ctl.CloseIdleConnections()
	load := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}}
	defer load.CloseIdleConnections()

	var (
		d      *daemon
		setups []float64
	)
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	warmup := targets[len(targets)-1] // the sweep: both plans and the harvest
	for range serveSetupReps {
		if d != nil {
			d.stop()
			d = nil
		}
		t0 := time.Now()
		sp := rc.tr.begin(rc.workload, "setup", 0)
		d, err = startDaemon(rc.ctx, rc.campaignd, rc.seed, ctl)
		var s sample
		if err == nil {
			s.status, s.body, s.err = post(rc.ctx, ctl, d.base+warmup.path, warmup.body)
		}
		rc.tr.end(sp, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if why := checkAnswer(s, warmup); why != "" {
			return fmt.Errorf("warm-up query: %s", why)
		}
	}

	var before, after scrape
	stopScraper := func() {}
	if rc.tr != nil {
		if before, err = scrapeAll(rc.ctx, ctl, d.base); err != nil {
			return err
		}
		stopScraper = startScraper(ctl, d.base, rc.tr, rc.workload)
	}
	samples := runClients(rc.ctx, load, d.base, targets, newMixer(rc.seed, targets), serveClients, rc.seconds)
	if rc.tr != nil {
		stopScraper()
		if after, err = scrapeAll(rc.ctx, ctl, d.base); err != nil {
			return err
		}
	}
	rss := d.stop()
	d = nil

	r := evalQueries(rc, res, targets, samples)
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["latency_p50_ms"] = finite(quantile(r.latMs, 0.5))
	res.Metrics["latency_p90_ms"] = finite(quantile(r.latMs, 0.9))
	res.Metrics["victims_per_s"] = float64(r.subs) / r.wall.Seconds()
	res.Metrics["peak_rss_mb"] = rss
	res.setRaw("setup_s", setups)
	res.setRaw("op_ms", r.latMs)
	for _, t := range targets {
		res.Digests[t.name] = t.ref
	}
	if rc.tr == nil || r.ok == 0 {
		return nil
	}

	m := res.LayerMetrics
	m["population.new_s"] = median(rc.tr.durations("population.New"))
	m["campaign.new_s"] = median(rc.tr.durations("campaign.New"))
	ops := float64(r.ok)
	engineMetrics(r.sums, r.wall, ops, m)
	m["campaign.rigs_built"] = after.delta(before, "campaign_rigs_built_total") / ops
	reqSum, reqCount := 0.0, 0.0
	for _, ep := range []string{"scenario", "sweep"} {
		reqSum += after.delta(before, `campaignd_request_seconds_sum{endpoint="`+ep+`"}`)
		reqCount += after.delta(before, `campaignd_request_seconds_count{endpoint="`+ep+`"}`)
	}
	m["server.request_ms"] = ratio(reqSum, reqCount) * 1e3
	m["report.render_ms"] = mean(rc.tr.durations("report.JSON")) * 1e3
	m["runtime.alloc_bytes_per_sub"] = ratio(after.totalAlloc-before.totalAlloc, float64(r.subs))
	m["runtime.gc_cycles"] = after.numGC - before.numGC

	// campaignd's engine is out of reach; replay the scenario queries
	// (built-in scenarios) over the reference engine's population, which
	// is the same population.
	scs := make([]campaign.Scenario, len(refSums))
	for i, s := range refSums {
		scs[i], _ = campaign.BuiltinScenario(s.Scenario)
	}
	return replayCheck(rc, res, refPop, refEng, scs, refSums)
}

// daemon is one campaignd subprocess.
type daemon struct {
	cmd     *exec.Cmd
	log     *daemonLog
	base    string
	exited  chan struct{}
	waitErr error
}

// daemonLog keeps campaignd's output and reports the address it
// announces.
type daemonLog struct {
	addr chan string // buffered 1; sent once
	mu   sync.Mutex
	buf  bytes.Buffer
	sent bool
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.sent {
		if m := listenRE.FindSubmatch(l.buf.Bytes()); m != nil {
			l.sent = true
			l.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startDaemon starts campaignd on a free port and returns once it
// answers readiness, polled every 10 ms.
func startDaemon(ctx context.Context, bin string, seed int64, ctl *http.Client) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-subscribers", strconv.Itoa(serveSubscribers), "-shard", strconv.Itoa(serveShard),
		"-seed", strconv.FormatInt(seed, 10))
	log := &daemonLog{addr: make(chan string, 1)}
	cmd.Stdout, cmd.Stderr = log, log
	// campaignd dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start campaignd: %w", err)
	}
	d := &daemon{cmd: cmd, log: log, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, fmt.Errorf("campaignd: %w\n%s", err, log.String())
	}
	select {
	case d.base = <-log.addr:
	case <-d.exited:
		return fail(fmt.Errorf("exited before listening: %v", d.waitErr))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		resp, err := ctl.Get(d.base + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-tick.C:
		case <-d.exited:
			return fail(fmt.Errorf("exited before ready: %v", d.waitErr))
		case <-ctx.Done():
			return fail(ctx.Err())
		}
	}
}

// stop ends campaignd as an operator would — SIGTERM, then its graceful
// drain — kills it if it outlives the drain, waits for it, and returns
// its peak resident set in MB.
func (d *daemon) stop() float64 {
	select {
	case <-d.exited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		t := time.NewTimer(15 * time.Second)
		select {
		case <-d.exited:
		case <-t.C:
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		t.Stop()
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// scrape is campaignd's /metrics plus the allocator totals of its
// /debug/vars.
type scrape struct {
	metrics           map[string]float64
	totalAlloc, numGC float64
}

// delta is how much the series key grew since before.
func (s scrape) delta(before scrape, key string) float64 { return s.metrics[key] - before.metrics[key] }

func scrapeAll(ctx context.Context, ctl *http.Client, base string) (scrape, error) {
	m, err := scrapeMetrics(ctx, ctl, base)
	if err != nil {
		return scrape{}, err
	}
	var vars struct {
		Memstats struct {
			TotalAlloc, NumGC float64
		} `json:"memstats"`
	}
	if err := getJSON(ctx, ctl, base+"/debug/vars", &vars); err != nil {
		return scrape{}, err
	}
	return scrape{metrics: m, totalAlloc: vars.Memstats.TotalAlloc, numGC: vars.Memstats.NumGC}, nil
}

// scrapeMetrics reads the Prometheus text of /metrics into a map keyed
// by series (name plus labels).
func scrapeMetrics(ctx context.Context, ctl *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := ctl.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

func getJSON(ctx context.Context, ctl *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := ctl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decode %s: %w", url, err)
	}
	return nil
}

// scrapedSeries are the campaignd series a traced run records once a
// second: queries in flight and served, and rigs built.
var scrapedSeries = []string{
	"campaignd_inflight_requests",
	`campaignd_requests_total{endpoint="scenario"}`,
	`campaignd_requests_total{endpoint="sweep"}`,
	"campaign_rigs_built_total",
}

// startScraper scrapes /metrics once a second into the trace until the
// returned stop function is called; stop returns once it has exited.
func startScraper(ctl *http.Client, base string, tr *tracer, trace string) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			m, err := scrapeMetrics(context.Background(), ctl, base)
			if err != nil {
				continue
			}
			attrs := make(map[string]float64, len(scrapedSeries))
			for _, k := range scrapedSeries {
				attrs[k] = m[k]
			}
			tr.record(trace, "campaignd./metrics", 0, t0, time.Now(), attrs)
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
