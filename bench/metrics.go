package main

import (
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them from untraced runs; an operation is one
// cold campaign run, one sweep, or one served query. Bound is the share
// of the baseline median by which a metric may worsen before a change
// counts as a regression.
var endToEnd = []metricDef{
	// Everything before the first timed operation, median of several
	// set-ups per run.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Latency of one operation; served queries are timed from when they
	// were due, and a failed operation counts as missing every limit.
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	// Subscriber-scenarios attacked per second of operation wall clock.
	{Name: "victims_per_s", Unit: "victims/s", Better: "higher", Bound: 0.25},
	// Peak resident set of the process running the engine (this one, or
	// campaignd for the serve workloads).
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer are the traced run's metrics, one layer each; README.md maps
// every one to the end-to-end metric it should move. Replay metrics come
// from the layer replay over the workload's own population.
var perLayer = []metricDef{
	{Name: "population.new_s", Unit: "s", Better: "lower"},
	{Name: "campaign.new_s", Unit: "s", Better: "lower"},
	{Name: "population.shard_ns_per_sub", Unit: "ns", Better: "lower"},
	{Name: "population.leakrec_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "socialdb.addall_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "socialdb.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "socialdb.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "telecom.encode_ns_per_burst", Unit: "ns", Better: "lower"},
	{Name: "telecom.bursts", Unit: "count", Better: "lower"},
	{Name: "sniffer.feed_self_ns_per_burst", Unit: "ns", Better: "lower"},
	{Name: "sniffer.decoded_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sniffer.crack_ns_per_crack", Unit: "ns", Better: "lower"},
	{Name: "sniffer.cracks", Unit: "count", Better: "lower"},
	{Name: "sniffer.kc_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "campaign.run_s", Unit: "s", Better: "lower"},
	{Name: "campaign.synth_s", Unit: "s", Better: "lower"},
	{Name: "campaign.encrypt_s", Unit: "s", Better: "lower"},
	{Name: "campaign.feed_self_s", Unit: "s", Better: "lower"},
	{Name: "campaign.crack_s", Unit: "s", Better: "lower"},
	{Name: "campaign.closure_s", Unit: "s", Better: "lower"},
	{Name: "campaign.aggregate_s", Unit: "s", Better: "lower"},
	{Name: "campaign.residual_s", Unit: "s", Better: "lower"},
	{Name: "campaign.runs_inflight_mean", Unit: "runs", Better: "lower"},
	{Name: "campaign.rigs_built", Unit: "count", Better: "lower"},
	{Name: "server.request_ms", Unit: "ms", Better: "lower"},
	{Name: "report.render_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_sub", Unit: "bytes", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
}

// defByName finds a metric in defs.
func defByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// quantile is the linearly interpolated q-quantile of xs, which may
// hold +Inf for operations that failed.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if frac == 0 || i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (s[i+1]-s[i])*frac
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean (0 for no values).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4), whose
// default exclusive method defines the spread a benchmark is accepted
// on: the distance between the first and third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// finite maps +Inf (a failed operation's latency) to the largest
// float64, which JSON can carry and no limit admits.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
