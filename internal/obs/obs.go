// Package obs is the campaign pipeline's telemetry substrate: a
// dependency-free, zero-alloc-on-hot-path metrics core (atomic
// Counter/Gauge, fixed-bucket Histogram with quantile snapshots, a
// process-wide Registry of labeled families), Prometheus text-format
// exposition with an expvar bridge and a pprof-enabled HTTP server, a
// JSONL shard-lifecycle trace writer, runtime-internals gauges and
// CPU/heap profile capture helpers.
//
// Design rules, in priority order:
//
//   - Hot paths pay atomics only. Handles (*Counter, *Gauge,
//     *Histogram) are resolved once — at package init or engine
//     construction — through the Registry; Inc/Add/Set/Observe touch
//     nothing but atomic words and never allocate. Registry lookups
//     never happen per event.
//   - Instrumentation must not change results. Nothing in this package
//     feeds back into campaign computation; the campaign Summary of an
//     instrumented run is byte-identical to an uninstrumented one (a
//     fixed-seed equality test in internal/campaign enforces it).
//   - No dependencies beyond the standard library, so every internal
//     package (a51, sniffer, checkpoint, campaign) can self-instrument
//     without import cycles.
//
// Naming follows Prometheus conventions: snake_case family names with
// unit suffixes (_total for counters, _seconds/_bytes for unit-carrying
// values); label values carry the variable dimension (for example
// campaign_phase_seconds{phase="encrypt"}). The full family catalog is
// documented in docs/OBSERVABILITY.md.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	Name, Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for Prometheus semantics; this is
// not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d via a CAS loop (rarely contended; gauges are typically
// Set from one owner).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: observations land in the
// first bucket whose upper bound is >= the value, with an implicit
// +Inf overflow bucket. Observe is lock-free and allocation-free;
// snapshots (Count, Sum, Quantile) read the atomics without
// synchronization, so a snapshot taken during concurrent observation
// is approximately — not transactionally — consistent, which is what
// a scrape wants.
type Histogram struct {
	bounds  []float64      // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, updated by CAS
}

// newHistogram validates and copies the bucket bounds.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// NewLocalHistogram builds a standalone histogram that belongs to no
// registry: it is never scraped and starts at zero, so a caller that
// wants per-run timings (several runs may overlap in one process) can
// observe into its own local set instead of diffing snapshots of the
// process-lifetime series — snapshot diffs silently mix concurrent
// runs together.
func NewLocalHistogram(bounds []float64) *Histogram { return newHistogram(bounds) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤ ~20) and the scan is
	// branch-predictable; a binary search saves nothing at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start — the latency
// shorthand used by every timing call site.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation within the bucket holding the target rank — the same
// estimator as PromQL's histogram_quantile. Values in the +Inf bucket
// clamp to the highest finite bound. Returns NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]int64, len(h.counts))
	total := int64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return bucketQuantile(h.bounds, counts, total, q)
}

// bucketQuantile is the shared estimator behind Histogram.Quantile and
// HistSnapshot.Quantile.
func bucketQuantile(bounds []float64, counts []int64, total int64, q float64) float64 {
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range counts {
		c := counts[i]
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= rank {
			if i >= len(bounds) { // +Inf bucket
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}

// HistSnapshot is a point-in-time copy of a histogram's buckets.
// Snapshots subtract (Sub), which is how a caller scopes quantiles to
// one interval of a long-lived histogram — the campaign engine diffs
// phase histograms across a run to report per-run timing out of a
// process-lifetime registry.
type HistSnapshot struct {
	// Bounds aliases the histogram's (immutable) bucket bounds.
	Bounds []float64
	// Counts holds per-bucket observation counts (len(Bounds)+1; the
	// last is the +Inf bucket).
	Counts []int64
	// Count and Sum total the observations.
	Count int64
	Sum   float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// Quantile estimates the q-quantile of the snapshot, like
// Histogram.Quantile.
func (s HistSnapshot) Quantile(q float64) float64 {
	return bucketQuantile(s.Bounds, s.Counts, s.Count, q)
}

// ExpBuckets returns n exponentially growing upper bounds starting at
// start and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets spans 1µs to ~4s — the default for timing histograms
// (journal fsyncs, shard phases, snapshot folds all land inside it).
var LatencyBuckets = ExpBuckets(1e-6, 4, 12)

// metricKind discriminates family types for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// typeName renders the Prometheus TYPE line value.
func (k metricKind) typeName() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labeled member of a family.
type series struct {
	labels []Label // sorted by name
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64 // histogram families share bucket layout

	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
}

// Registry is a process-wide set of metric families. The zero value is
// not usable; call NewRegistry, or use the package Default.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// Default is the process-wide registry every package-level family
// registers into; cmd servers expose it, and tests that need isolation
// build their own with NewRegistry.
var Default = NewRegistry()

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// labelKey canonicalizes a sorted label list into a map key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortLabels returns a name-sorted copy.
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// getFamily finds or creates the named family, panicking on a kind
// conflict — registering one name as two types is a programming error
// caught at init, not a runtime condition to handle.
func (r *Registry) getFamily(name, help string, kind metricKind, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as both %s and %s",
				name, f.kind.typeName(), kind.typeName()))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, bounds: bounds,
		byKey: make(map[string]*series)}
	r.fams[name] = f
	return f
}

// getSeries finds or creates the labeled series within f, building the
// metric with mk on first sight.
func (f *family) getSeries(labels []Label, mk func(*series)) *series {
	sorted := sortLabels(labels)
	key := labelKey(sorted)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labels: sorted}
	mk(s)
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// NewCounter returns the counter for name plus labels, registering the
// family on first use. Repeated calls with the same name and labels
// return the same *Counter, so packages may resolve handles
// independently and still share one series.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	f := r.getFamily(name, help, kindCounter, nil)
	s := f.getSeries(labels, func(s *series) { s.c = &Counter{} })
	return s.c
}

// NewGauge returns the gauge for name plus labels.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	f := r.getFamily(name, help, kindGauge, nil)
	s := f.getSeries(labels, func(s *series) { s.g = &Gauge{} })
	return s.g
}

// NewHistogram returns the histogram for name plus labels. The first
// registration of a family fixes its bucket bounds; later calls reuse
// them (per-series bucket layouts would break exposition).
func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	f := r.getFamily(name, help, kindHistogram, bounds)
	s := f.getSeries(labels, func(s *series) { s.h = newHistogram(f.bounds) })
	return s.h
}

// Value reads the current value of a counter, gauge or gauge func
// series — the API live-status renderers (cmd/campaign -progress) poll
// instead of holding typed handles. ok is false for unknown series and
// for histograms.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	r.mu.Lock()
	f, ok := r.fams[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	key := labelKey(sortLabels(labels))
	f.mu.Lock()
	s, ok := f.byKey[key]
	f.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch {
	case s.c != nil:
		return float64(s.c.Value()), true
	case s.g != nil:
		return s.g.Value(), true
	}
	return 0, false
}

// sortedFamilies snapshots the family list in name order for
// deterministic exposition.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// snapshotSeries copies f's series list under its lock.
func (f *family) snapshotSeries() []*series {
	f.mu.Lock()
	out := append([]*series(nil), f.series...)
	f.mu.Unlock()
	return out
}
