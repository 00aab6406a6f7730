package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one # HELP / # TYPE header per
// family, then one line per series, with histogram families expanded
// into cumulative _bucket{le=...} lines plus _sum and _count. Families
// and series render in deterministic (name, label) order so diffs of
// consecutive scrapes are stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind.typeName()); err != nil {
			return err
		}
		series := f.snapshotSeries()
		for _, s := range series {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries renders one series' sample line(s).
func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels, ""), s.c.Value())
		return err
	case s.g != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels, ""), formatFloat(s.g.Value()))
		return err
	case s.h != nil:
		return writeHistogram(w, f.name, s)
	}
	return nil
}

// writeHistogram expands a histogram series into cumulative buckets.
// Per-bucket counts are read once into a local slice so the cumulative
// sums are internally consistent even while Observe runs concurrently
// (count/sum may still lag the buckets by in-flight observations —
// Prometheus tolerates that skew between scrapes).
func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.h
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += counts[i]
		le := renderLabels(s.labels, formatFloat(bound))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, le, cum); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(s.labels, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(s.labels, ""), formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(s.labels, ""), cum)
	return err
}

// renderLabels renders {a="x",b="y"} (empty string for no labels); a
// non-empty le slots the histogram bucket bound in as the last label.
func renderLabels(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a float64 the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PublishExpvar mirrors the registry under one expvar.Var so
// /debug/vars includes a JSON view of every family — counters and
// gauges as numbers, histograms as {count, sum, p50, p90, p99}. The
// name must be unique process-wide (expvar panics on reuse).
func (r *Registry) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any {
		out := make(map[string]any)
		for _, f := range r.sortedFamilies() {
			for _, s := range f.snapshotSeries() {
				key := f.name + labelSuffix(s.labels)
				switch {
				case s.c != nil:
					out[key] = s.c.Value()
				case s.g != nil:
					out[key] = s.g.Value()
				case s.h != nil:
					out[key] = map[string]any{
						"count": s.h.Count(),
						"sum":   s.h.Sum(),
						"p50":   nanToNil(s.h.Quantile(0.50)),
						"p90":   nanToNil(s.h.Quantile(0.90)),
						"p99":   nanToNil(s.h.Quantile(0.99)),
					}
				}
			}
		}
		return out
	}))
}

// labelSuffix renders {a=x,b=y} for expvar keys (no quoting — these
// are map keys, not exposition lines).
func labelSuffix(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	return "{" + labelKey(labels) + "}"
}

// nanToNil maps NaN to nil so the expvar JSON stays valid (JSON has no
// NaN literal).
func nanToNil(v float64) any {
	if math.IsNaN(v) {
		return nil
	}
	return v
}
