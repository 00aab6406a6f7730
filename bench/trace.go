package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Name is the
// public function called, Trace groups the spans of one workload run or
// one served query, Parent is the id of the span that caused it (0 =
// none) and Attrs carries the units of work the call did. Times are
// nanoseconds since the tracer started.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Trace  string             `json:"trace"`
	Name   string             `json:"name"`
	Start  int64              `json:"startNs"`
	End    int64              `json:"endNs"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// dur is the span's duration in nanoseconds.
func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
// Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.t0).Nanoseconds() }

// begin opens a span and returns its id.
func (t *tracer) begin(trace, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id with the units of work it did.
func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Attrs = attrs
}

// record adds a span whose bounds the caller measured itself: a served
// query starts at its due time, before any goroutine touched it.
func (t *tracer) record(trace, name string, parent int, start, end time.Time, attrs map[string]float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		Start: t.at(start), End: t.at(end), Attrs: attrs})
	return len(t.spans)
}

// named returns a copy of every span called name.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations (ns) and the attrs of every span called
// name.
func (t *tracer) total(name string) (ns float64, attrs map[string]float64) {
	attrs = make(map[string]float64)
	for _, s := range t.named(name) {
		ns += s.dur()
		for k, v := range s.Attrs {
			attrs[k] += v
		}
	}
	return ns, attrs
}

// durations returns the duration in seconds of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, s.dur()/1e9)
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
