package main

import (
	"fmt"
	"os"

	"github.com/actfort/actfort/internal/core"
	"github.com/actfort/actfort/internal/countermeasure"
	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/report"
	"github.com/actfort/actfort/internal/strategy"
)

// printMeasure regenerates the paper's measurement artifacts from the
// calibrated ecosystem. With all set it prints Fig 3 (credential-factor
// usage), Table I (post-login exposure), the §IV.B.1 dependency-depth
// percentages, the per-domain breakdown and the Fig 4 summary line.
// A non-empty fig4 also writes the Fig 4 connection graph as DOT to
// that file, or to stdout for "-".
func printMeasure(cat *ecosys.Catalog, engine *core.ActFort, all bool, fig4 string) error {
	if all {
		m, err := engine.Measure()
		if err != nil {
			return err
		}
		fmt.Println(report.Fig3(m.Web, m.Mobile))
		fmt.Printf("total services: %d, total paths: %d (paper: 201 / 405)\n\n",
			m.Services, m.Web.Paths+m.Mobile.Paths)
		fmt.Println(report.Table1(m.WebExposure, m.MobileExposure))
		fmt.Println(report.Layers(m.WebLayers, m.MobileLayers))
		fmt.Println(report.Domains(m.Domains))
	}

	g, err := dataset.Fig4Graph(cat, ecosys.BaselineAttacker())
	if err != nil {
		return err
	}
	fmt.Printf("Fig 4 — %d accounts: %d fringe (red), %d internal (blue), %d strong edges, %d weak edges\n",
		g.Len(), len(g.FringeNodes()), len(g.InternalNodes()),
		len(g.StrongEdges()), len(g.WeakEdges()))
	switch fig4 {
	case "":
		return nil
	case "-":
		return g.DOT(os.Stdout)
	default:
		return writeDOT(fig4, g.DOT)
	}
}

// printFortify applies the §VII.A countermeasures — unified
// sensitive-data masking, hardened email providers, and built-in
// (push-based) authentication — and re-runs the measurement to show
// the before/after collapse of the attack surface (experiment E13).
func printFortify(cat *ecosys.Catalog) error {
	out, err := countermeasure.Evaluate(cat)
	if err != nil {
		return err
	}
	t := &report.Table{
		Title:   "E13 — ecosystem before/after the full §VII.A program",
		Headers: []string{"metric", "before", "after"},
	}
	row := func(name string, before, after strategy.DepthStats, get func(strategy.DepthStats) int) {
		t.AddRow(name,
			fmt.Sprintf("%d (%s)", get(before), report.Pct(before.Pct(get(before)))),
			fmt.Sprintf("%d (%s)", get(after), report.Pct(after.Pct(get(after)))))
	}
	row("web direct", out.WebBefore, out.WebAfter, func(s strategy.DepthStats) int { return s.Direct })
	row("web one-middle", out.WebBefore, out.WebAfter, func(s strategy.DepthStats) int { return s.OneMiddle })
	row("web uncompromisable", out.WebBefore, out.WebAfter, func(s strategy.DepthStats) int { return s.Uncompromisable })
	row("mobile direct", out.MobileBefore, out.MobileAfter, func(s strategy.DepthStats) int { return s.Direct })
	row("mobile uncompromisable", out.MobileBefore, out.MobileAfter, func(s strategy.DepthStats) int { return s.Uncompromisable })
	fmt.Println(t)
	fmt.Printf("forward-closure victims: %d/%d before -> %d/%d after\n",
		out.VictimsBefore, out.Total, out.VictimsAfter, out.Total)
	return nil
}
