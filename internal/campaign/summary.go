package campaign

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/report"
	"github.com/actfort/actfort/internal/sniffer"
)

// MaxDepth is the terminal compromise-depth bucket: chains of
// MaxDepth or more layers are counted together (the paper's analysis
// stops at two middle layers; anything deeper is exotic).
const MaxDepth = 6

// Summary aggregates a campaign run. Each worker merges its per-shard
// partial summaries into the run's aggregate as it completes them, so
// memory stays bounded regardless of population size. All counters are
// deterministic for a fixed config; Duration and VictimsPerSec are
// the only wall-clock-dependent fields.
type Summary struct {
	// Scenario and Policy name the scenario the summary describes and
	// the countermeasure policy it fortified the catalog with (empty
	// for the baseline).
	Scenario string
	Policy   string
	// Subscribers is the population size processed.
	Subscribers int64
	// Targeted counts subscribers inside the scenario's victim segment
	// (equal to Subscribers when no segment is set).
	Targeted int64
	// Covered counts targeted subscribers whose serving channel one of
	// the fleet's receivers camped on.
	Covered int64
	// Intercepted counts covered subscribers with at least one OTP
	// session decoded (cracked or plaintext).
	Intercepted int64
	// LeakRecords is the size of the attacker's merged leak database:
	// the owned shards' leaked subscribers (phones are unique, so one
	// record each).
	LeakRecords int64
	// DossierHits counts intercepted victims with a leak record (a
	// Dossier with DossierFound set).
	DossierHits int64
	// Sessions counts sniffed OTP transmissions; A50Sessions the
	// subset on unencrypted (A5/0) cells and A53Sessions the subset on
	// A5/3-upgraded cells the rig cannot crack.
	Sessions    int64
	A50Sessions int64
	A53Sessions int64

	// VictimsCompromised counts victims losing at least one account.
	VictimsCompromised int64
	// AccountsCompromised totals account takeovers across victims.
	AccountsCompromised int64
	// AccountsByDepth histograms takeovers by chain depth (index 1..
	// MaxDepth; the last bucket is ≥MaxDepth; index 0 unused).
	AccountsByDepth [MaxDepth + 1]int64
	// VictimsByMaxDepth histograms victims by their deepest chain.
	VictimsByMaxDepth [MaxDepth + 1]int64
	// ServiceTakeovers counts takeovers per catalog service, in the
	// population's service order.
	ServiceTakeovers []int64
	// FieldTotals counts victims whose harvested dossier gained each
	// information field (indexed by ecosys.InfoField).
	FieldTotals []int64
	// HarvestHist buckets victims by distinct information fields
	// harvested (index 0 = intercepted but nothing harvested).
	HarvestHist []int64

	// ShardsQuarantined counts shards abandoned after exhausting their
	// attempt budget (poisoned or persistently failing);
	// SubscribersSkipped totals the subscribers those shards covered.
	// CoverageFraction is processed/(processed+skipped) — 1.0 for a
	// complete run, explicitly less when the run degraded to a partial
	// report instead of aborting.
	ShardsQuarantined  int64
	SubscribersSkipped int64
	CoverageFraction   float64

	// Sniffer accumulates every per-shard rig's counters, including
	// the Kc-reuse cache hits and misses.
	Sniffer sniffer.Stats

	// Backend names the shared cracker; Workers the pool width.
	Backend string
	Workers int
	// Duration is this process's wall clock for the run; ActiveDuration
	// is the cumulative active wall clock across every process that
	// contributed (carried through checkpoint snapshots, so a
	// kill-and-resume run accumulates rather than resets). On an
	// uninterrupted run the two are equal.
	Duration       time.Duration
	ActiveDuration time.Duration
	// VictimsPerSec is Subscribers/ActiveDuration — the cumulative
	// throughput. (It used to divide the full victim count by only the
	// post-resume wall clock, overstating resumed runs several-fold.)
	// ResumeVictimsPerSec is the post-resume rate — subscribers
	// processed by this process over its own Duration — set only when
	// the run actually resumed prior state.
	VictimsPerSec       float64
	ResumeVictimsPerSec float64
	// PhaseTimings breaks the run's wall clock down by pipeline phase
	// (per-shard synth/encrypt/feed/closure, the sniffer's batched
	// cracks, the merge+journal fold) — populated from the obs phase histograms
	// at the end of each run, wall-clock-dependent like Duration.
	PhaseTimings []PhaseTiming
}

// PhaseTiming is one row of the per-phase breakdown: how many times
// the phase ran, its total wall time across the run, and latency
// quantiles per execution (histogram-estimated).
type PhaseTiming struct {
	Phase         string
	Count         int64
	Total         time.Duration
	P50, P90, P99 time.Duration
}

// newSummary sizes the per-service and per-field tables.
func newSummary(numServices int) *Summary {
	return &Summary{
		ServiceTakeovers: make([]int64, numServices),
		FieldTotals:      make([]int64, len(ecosys.AllInfoFields())+1),
		HarvestHist:      make([]int64, len(ecosys.AllInfoFields())+1),
	}
}

// reset zeroes s for reuse, keeping its tables.
func (s *Summary) reset() {
	st, ft, hh := s.ServiceTakeovers, s.FieldTotals, s.HarvestHist
	clear(st)
	clear(ft)
	clear(hh)
	*s = Summary{ServiceTakeovers: st, FieldTotals: ft, HarvestHist: hh}
}

// Merge accumulates a partial summary.
func (s *Summary) Merge(o *Summary) {
	s.Subscribers += o.Subscribers
	s.Targeted += o.Targeted
	s.Covered += o.Covered
	s.Intercepted += o.Intercepted
	s.LeakRecords += o.LeakRecords
	s.DossierHits += o.DossierHits
	s.Sessions += o.Sessions
	s.A50Sessions += o.A50Sessions
	s.A53Sessions += o.A53Sessions
	s.VictimsCompromised += o.VictimsCompromised
	s.AccountsCompromised += o.AccountsCompromised
	for i := range s.AccountsByDepth {
		s.AccountsByDepth[i] += o.AccountsByDepth[i]
		s.VictimsByMaxDepth[i] += o.VictimsByMaxDepth[i]
	}
	for i := range o.ServiceTakeovers {
		s.ServiceTakeovers[i] += o.ServiceTakeovers[i]
	}
	for i := range o.FieldTotals {
		s.FieldTotals[i] += o.FieldTotals[i]
	}
	for i := range o.HarvestHist {
		s.HarvestHist[i] += o.HarvestHist[i]
	}
	s.ShardsQuarantined += o.ShardsQuarantined
	s.SubscribersSkipped += o.SubscribersSkipped
	s.Sniffer.Add(o.Sniffer)
	s.recomputeCoverage()
}

// recomputeCoverage derives CoverageFraction from the processed and
// skipped counts — a pure function of them, so merge order and resume
// boundaries never change it.
func (s *Summary) recomputeCoverage() {
	total := s.Subscribers + s.SubscribersSkipped
	if total > 0 {
		s.CoverageFraction = float64(s.Subscribers) / float64(total)
	} else {
		s.CoverageFraction = 0
	}
}

// pct is a safe percentage.
func pct(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// Render writes the campaign report: headline counters, the
// compromise-depth histograms, the top-N services by takeovers and
// the harvested-information distribution, using the same table and
// bar renderers the paper's figures go through.
func (s *Summary) Render(services []string, top int) string {
	var b strings.Builder

	title := "Campaign summary — chain-reaction attack across the subscriber population"
	if s.Scenario != "" {
		title = fmt.Sprintf("Campaign summary — scenario %q", s.Scenario)
	}
	h := &report.Table{
		Title:   title,
		Headers: []string{"metric", "value"},
	}
	if s.Policy != "" {
		h.AddRow("countermeasure policy", s.Policy)
	}
	h.AddRow("subscribers", comma(s.Subscribers))
	if s.ShardsQuarantined > 0 {
		h.AddRow("shards quarantined", comma(s.ShardsQuarantined))
		h.AddRow("subscribers skipped", comma(s.SubscribersSkipped))
		h.AddRow("population coverage", report.Pct(100*s.CoverageFraction))
	}
	if s.Targeted != s.Subscribers {
		h.AddRow("targeted segment", fmt.Sprintf("%s (%s)", comma(s.Targeted), report.Pct(pct(s.Targeted, s.Subscribers))))
	}
	h.AddRow("covered by rig", fmt.Sprintf("%s (%s)", comma(s.Covered), report.Pct(pct(s.Covered, s.Targeted))))
	h.AddRow("OTP intercepted", fmt.Sprintf("%s (%s)", comma(s.Intercepted), report.Pct(pct(s.Intercepted, s.Targeted))))
	h.AddRow("leak DB records", comma(s.LeakRecords))
	h.AddRow("victims with dossier", fmt.Sprintf("%s (%s)", comma(s.DossierHits), report.Pct(pct(s.DossierHits, s.Intercepted))))
	h.AddRow("victims compromised", fmt.Sprintf("%s (%s)", comma(s.VictimsCompromised), report.Pct(pct(s.VictimsCompromised, s.Subscribers))))
	h.AddRow("accounts taken over", comma(s.AccountsCompromised))
	h.AddRow("OTP sessions sniffed", fmt.Sprintf("%s (%s on A5/0, %s on A5/3)",
		comma(s.Sessions), report.Pct(pct(s.A50Sessions, s.Sessions)), report.Pct(pct(s.A53Sessions, s.Sessions))))
	h.AddRow("A5/1 cracks", fmt.Sprintf("%d attempted, %d succeeded, %d A5/3 sessions abandoned",
		s.Sniffer.CracksAttempted, s.Sniffer.CracksSucceeded, s.Sniffer.A53Abandoned))
	h.AddRow("Kc reuse cache", fmt.Sprintf("%d hits, %d misses", s.Sniffer.KcReuseHits, s.Sniffer.KcReuseMisses))
	h.AddRow("cracker backend", s.Backend)
	h.AddRow("workers", strconv.Itoa(s.Workers))
	if s.Duration > 0 {
		h.AddRow("duration", s.Duration.Round(time.Millisecond).String())
		if s.ActiveDuration > s.Duration {
			h.AddRow("active duration (all processes)", s.ActiveDuration.Round(time.Millisecond).String())
		}
		h.AddRow("throughput", fmt.Sprintf("%.0f victims/s", s.VictimsPerSec))
		if s.ResumeVictimsPerSec > 0 {
			h.AddRow("post-resume throughput", fmt.Sprintf("%.0f victims/s", s.ResumeVictimsPerSec))
		}
	}
	b.WriteString(h.String())
	b.WriteString("\n")
	if s.Duration > 0 && len(s.PhaseTimings) > 0 {
		b.WriteString(s.phaseTable().String())
		b.WriteString("\n")
	}

	depthRows := make([]report.HistRow, 0, MaxDepth)
	for d := 1; d <= MaxDepth; d++ {
		label := fmt.Sprintf("depth %d", d)
		if d == 1 {
			label = "depth 1 (SMS alone)"
		}
		if d == MaxDepth {
			label = fmt.Sprintf("depth >=%d", MaxDepth)
		}
		depthRows = append(depthRows, report.HistRow{Label: label, Count: s.AccountsByDepth[d]})
	}
	b.WriteString(report.Histogram("Account takeovers by chain depth", depthRows).String())
	b.WriteString("\n")

	victimRows := make([]report.HistRow, 0, MaxDepth)
	for d := 1; d <= MaxDepth; d++ {
		label := fmt.Sprintf("max depth %d", d)
		if d == MaxDepth {
			label = fmt.Sprintf("max depth >=%d", MaxDepth)
		}
		victimRows = append(victimRows, report.HistRow{Label: label, Count: s.VictimsByMaxDepth[d]})
	}
	b.WriteString(report.Histogram("Victims by deepest chain executed", victimRows).String())
	b.WriteString("\n")

	b.WriteString(s.topServices(services, top).String())
	b.WriteString("\n")
	b.WriteString(s.harvestTable().String())
	return b.String()
}

// phaseTable renders the per-phase timing breakdown.
func (s *Summary) phaseTable() *report.Table {
	t := &report.Table{
		Title:   "Per-phase timing (this process; crack runs inside feed)",
		Headers: []string{"phase", "count", "total", "p50", "p90", "p99"},
	}
	for _, p := range s.PhaseTimings {
		t.AddRow(p.Phase, comma(p.Count), p.Total.Round(time.Microsecond).String(),
			p.P50.Round(time.Microsecond).String(), p.P90.Round(time.Microsecond).String(),
			p.P99.Round(time.Microsecond).String())
	}
	return t
}

// topServices ranks services by takeover count.
func (s *Summary) topServices(services []string, top int) *report.Table {
	if top <= 0 {
		top = 15
	}
	type row struct {
		name  string
		count int64
	}
	rows := make([]row, 0, len(s.ServiceTakeovers))
	for i, c := range s.ServiceTakeovers {
		if c == 0 {
			continue
		}
		name := fmt.Sprintf("service-%d", i)
		if i < len(services) {
			name = services[i]
		}
		rows = append(rows, row{name: name, count: c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].count != rows[j].count {
			return rows[i].count > rows[j].count
		}
		return rows[i].name < rows[j].name
	})
	if len(rows) > top {
		rows = rows[:top]
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Top %d services by account takeovers", len(rows)),
		Headers: []string{"rank", "service", "takeovers", "per intercepted victim"},
	}
	for i, r := range rows {
		t.AddRow(strconv.Itoa(i+1), r.name, comma(r.count), report.Pct(pct(r.count, s.Intercepted)))
	}
	return t
}

// harvestTable renders the factors-harvested distribution.
func (s *Summary) harvestTable() *report.Table {
	t := &report.Table{
		Title:   "Personal information harvested from compromised accounts",
		Headers: []string{"field", "victims", "share of intercepted"},
	}
	for _, f := range ecosys.AllInfoFields() {
		c := s.FieldTotals[int(f)]
		if c == 0 {
			continue
		}
		t.AddRow(f.String(), comma(c), report.Pct(pct(c, s.Intercepted)))
	}
	return t
}

// comma renders 1234567 as "1,234,567".
func comma(n int64) string {
	s := strconv.FormatInt(n, 10)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	if neg {
		return "-" + string(out)
	}
	return string(out)
}
