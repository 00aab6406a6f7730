// Package core is ActFort itself: the systematic framework of §III
// that wires the four pipeline stages of Fig 2 — Authentication
// Process (authproc), Personal Information Collection (collect),
// Transformation Dependency Graph Generation (tdg) and Strategy Output
// (strategy) — behind one facade. Feed it a service catalog and an
// attacker profile; query it for ecosystem measurements, attack plans
// against specific targets, and forward-closure victim sets.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/actfort/actfort/internal/authproc"
	"github.com/actfort/actfort/internal/collect"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/strategy"
	"github.com/actfort/actfort/internal/tdg"
)

// ActFort is the analysis engine. Construct with New; all methods are
// safe for concurrent use.
type ActFort struct {
	cat *ecosys.Catalog
	ap  ecosys.AttackerProfile

	mu sync.Mutex
	// solved caches, per platform set, its graph's closure solution;
	// every plan, measurement and forward closure from no initial
	// account reads it.
	solved map[string]*strategy.Solution
}

// ErrInvalidCatalog wraps specification-hygiene failures found at
// construction.
var ErrInvalidCatalog = errors.New("core: catalog failed validation")

// New validates the catalog and returns an engine bound to the given
// attacker profile (use ecosys.BaselineAttacker for the paper's
// phone + SMS interception model).
func New(cat *ecosys.Catalog, ap ecosys.AttackerProfile) (*ActFort, error) {
	if cat == nil {
		return nil, errors.New("core: nil catalog")
	}
	if errs := authproc.ValidateCatalog(cat); len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for _, e := range errs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("%w:\n%s", ErrInvalidCatalog, strings.Join(msgs, "\n"))
	}
	return &ActFort{
		cat:    cat,
		ap:     ap.Clone(),
		solved: make(map[string]*strategy.Solution),
	}, nil
}

// Graph returns the Transformation Dependency Graph over the given
// platforms (both when none given), building, solving and caching it
// on first use.
func (a *ActFort) Graph(platforms ...ecosys.Platform) (*tdg.Graph, error) {
	s, err := a.solve(platforms)
	if err != nil {
		return nil, err
	}
	return s.Graph(), nil
}

// solve returns the closure solution of the graph over platforms,
// building and solving the graph on first use.
func (a *ActFort) solve(platforms []ecosys.Platform) (*strategy.Solution, error) {
	key := graphKey(platforms)
	a.mu.Lock()
	defer a.mu.Unlock()
	if s, ok := a.solved[key]; ok {
		return s, nil
	}
	g, err := tdg.Build(tdg.NodesFromCatalog(a.cat, platforms...), a.ap)
	if err != nil {
		return nil, err
	}
	s := strategy.Solve(g)
	a.solved[key] = s
	return s, nil
}

func graphKey(platforms []ecosys.Platform) string {
	if len(platforms) == 0 {
		return "all"
	}
	names := make([]string, 0, len(platforms))
	for _, p := range platforms {
		names = append(names, p.String())
	}
	sort.Strings(names)
	return strings.Join(names, "+")
}

// AttackPlan runs the backward search of §III.E scenario 2: a
// shallowest Chain Reaction Attack plan reaching target, over the target
// platform's graph combined with web (middle accounts may live on
// either platform).
func (a *ActFort) AttackPlan(target ecosys.AccountID, maxDepth int) (*strategy.Plan, error) {
	s, err := a.solve(nil)
	if err != nil {
		return nil, err
	}
	return s.Plan(target, maxDepth)
}

// AttackPlans enumerates up to limit distinct plans for target.
func (a *ActFort) AttackPlans(target ecosys.AccountID, maxDepth, limit int) ([]*strategy.Plan, error) {
	s, err := a.solve(nil)
	if err != nil {
		return nil, err
	}
	return s.Plans(target, maxDepth, limit)
}

// Victims runs the forward closure of §III.E scenario 1: given
// initially compromised accounts (may be empty — pure phone+SMS
// attacker), every account that ultimately falls.
func (a *ActFort) Victims(initial []ecosys.AccountID, platforms ...ecosys.Platform) (*strategy.ForwardResult, error) {
	s, err := a.solve(platforms)
	if err != nil {
		return nil, err
	}
	if len(initial) > 0 {
		return strategy.ForwardClosure(s.Graph(), initial)
	}
	return s.Forward(), nil
}

// DomainStats is the per-domain vulnerability breakdown behind the
// "different domains have different levels of authentication" insight.
type DomainStats struct {
	Domain   ecosys.Domain
	Accounts int
	// Fringe counts accounts compromisable with phone + SMS alone.
	Fringe int
	// Compromisable counts accounts falling in the full closure.
	Compromisable int
}

// Measurement is the complete ecosystem analysis: everything the
// paper's §IV reports, computed from the catalog.
type Measurement struct {
	Services int
	// Auth stats per platform (Fig 3 and path classes).
	Web    authproc.Stats
	Mobile authproc.Stats
	// Exposure stats per platform (Table I).
	WebExposure    collect.ExposureStats
	MobileExposure collect.ExposureStats
	// Dependency-depth stats per platform (§IV.B.1 percentages).
	WebLayers    strategy.DepthStats
	MobileLayers strategy.DepthStats
	// Victims counts the accounts falling in the forward closure over
	// both platforms.
	Victims int
	// Domains is the per-domain breakdown over both platforms, sorted
	// by domain.
	Domains []DomainStats
}

// Measure runs the full pipeline and aggregates every §IV statistic.
func (a *ActFort) Measure() (*Measurement, error) {
	m := &Measurement{
		Services:       a.cat.Len(),
		Web:            authproc.Measure(a.cat, ecosys.PlatformWeb),
		Mobile:         authproc.Measure(a.cat, ecosys.PlatformMobile),
		WebExposure:    collect.Measure(a.cat, ecosys.PlatformWeb),
		MobileExposure: collect.Measure(a.cat, ecosys.PlatformMobile),
	}
	web, err := a.solve([]ecosys.Platform{ecosys.PlatformWeb})
	if err != nil {
		return nil, err
	}
	mobile, err := a.solve([]ecosys.Platform{ecosys.PlatformMobile})
	if err != nil {
		return nil, err
	}
	m.WebLayers, m.MobileLayers = web.DepthStats(), mobile.DepthStats()

	// Per-domain breakdown over the combined graph.
	s, err := a.solve(nil)
	if err != nil {
		return nil, err
	}
	g, res := s.Graph(), s.Forward()
	m.Victims = res.VictimCount()
	byDomain := make(map[ecosys.Domain]*DomainStats)
	for _, id := range g.Nodes() {
		node, _ := g.Node(id)
		ds, ok := byDomain[node.Domain]
		if !ok {
			ds = &DomainStats{Domain: node.Domain}
			byDomain[node.Domain] = ds
		}
		ds.Accounts++
		if g.IsFringe(id) {
			ds.Fringe++
		}
		if _, fell := res.Compromised[id]; fell {
			ds.Compromisable++
		}
	}
	for _, d := range ecosys.AllDomains() {
		if ds, ok := byDomain[d]; ok {
			m.Domains = append(m.Domains, *ds)
		}
	}
	return m, nil
}
