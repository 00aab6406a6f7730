package countermeasure

import (
	"github.com/actfort/actfort/internal/core"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/strategy"
)

// Outcome compares the ecosystem before and after fortification: the
// experiment behind E13.
type Outcome struct {
	// Depth stats per platform, before and after FortifyAll.
	WebBefore, WebAfter       strategy.DepthStats
	MobileBefore, MobileAfter strategy.DepthStats
	// VictimsBefore/After count accounts falling to the full forward
	// closure over both platforms.
	VictimsBefore, VictimsAfter int
	// Total is the combined account count.
	Total int
}

// Evaluate runs the paper's measurement (core.ActFort.Measure) on cat
// and on FortifyAll(cat) under the baseline phone+SMS attacker.
func Evaluate(cat *ecosys.Catalog) (*Outcome, error) {
	fortified, err := FortifyAll(cat)
	if err != nil {
		return nil, err
	}
	before, err := measure(cat)
	if err != nil {
		return nil, err
	}
	after, err := measure(fortified)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		WebBefore: before.WebLayers, WebAfter: after.WebLayers,
		MobileBefore: before.MobileLayers, MobileAfter: after.MobileLayers,
		VictimsBefore: before.Victims, VictimsAfter: after.Victims,
		Total: before.WebLayers.Total + before.MobileLayers.Total,
	}, nil
}

// measure measures cat under the baseline attacker.
func measure(cat *ecosys.Catalog) (*core.Measurement, error) {
	engine, err := core.New(cat, ecosys.BaselineAttacker())
	if err != nil {
		return nil, err
	}
	return engine.Measure()
}
