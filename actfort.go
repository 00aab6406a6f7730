// Package actfort is the public API of the ActFort library: a Go
// reproduction of "SMS Goes Nuclear: Fortifying SMS-Based MFA in
// Online Account Ecosystem" (DSN 2021).
//
// ActFort models an Online Account Ecosystem — services with
// authentication paths (conjunctions of credential factors) and
// post-login personal-information exposure — and analyzes how the
// insecurity of SMS-delivered one-time codes propagates: a
// Transformation Dependency Graph links what one account leaks to what
// another account demands, a strategy engine computes which accounts
// an SMS-intercepting attacker ultimately controls (forward closure)
// and how to reach a specific hardened target (backward chain search),
// and a countermeasure suite re-evaluates the ecosystem after
// fortification.
//
// Quick start:
//
//	cat, err := actfort.DefaultCatalog() // the calibrated 201-service ecosystem
//	engine, err := actfort.New(cat, actfort.BaselineAttacker())
//	m, err := engine.Measure()           // Fig 3 / Table I / layer stats
//	plan, err := engine.AttackPlan(actfort.Account("alipay", actfort.Mobile), 0)
//
// The heavy machinery lives in internal packages (telecom and A5/1
// simulation, passive sniffer, active MitM, live HTTP services, attack
// executor); this package re-exports the analysis surface a downstream
// user needs. The cmd/ binaries and examples/ directory demonstrate
// the full stack.
package actfort

import (
	"github.com/actfort/actfort/internal/core"
	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/strategy"
	"github.com/actfort/actfort/internal/tdg"
)

// Version identifies the library release.
const Version = "1.0.0"

// Re-exported model types.
type (
	// Catalog is an immutable collection of service specifications.
	Catalog = ecosys.Catalog
	// ServiceSpec describes one online service.
	ServiceSpec = ecosys.ServiceSpec
	// Presence is one platform incarnation of a service.
	Presence = ecosys.Presence
	// AuthPath is a conjunction of credential factors.
	AuthPath = ecosys.AuthPath
	// FactorKind enumerates credential factor types.
	FactorKind = ecosys.FactorKind
	// InfoField enumerates personal-information fields.
	InfoField = ecosys.InfoField
	// AccountID names one service presence (a graph node).
	AccountID = ecosys.AccountID
	// AttackerProfile describes the assumed attacker (AP).
	AttackerProfile = ecosys.AttackerProfile
	// PlatformKind distinguishes web from mobile presences.
	PlatformKind = ecosys.Platform

	// Engine is the ActFort analysis pipeline.
	Engine = core.ActFort
	// Measurement aggregates every §IV statistic.
	Measurement = core.Measurement
	// Graph is the Transformation Dependency Graph.
	Graph = tdg.Graph
	// Plan is an ordered Chain Reaction Attack.
	Plan = strategy.Plan
	// ForwardResult is the outcome of a forward closure.
	ForwardResult = strategy.ForwardResult
	// DepthStats holds the §IV.B.1 dependency-depth percentages.
	DepthStats = strategy.DepthStats
)

// Platforms.
const (
	// Web is the browser client.
	Web = ecosys.PlatformWeb
	// Mobile is the mobile application.
	Mobile = ecosys.PlatformMobile
)

// New builds an analysis engine over a validated catalog.
func New(cat *Catalog, ap AttackerProfile) (*Engine, error) {
	return core.New(cat, ap)
}

// DefaultCatalog returns the calibrated 201-service ecosystem whose
// marginal statistics match the paper's measurement (see DESIGN.md).
func DefaultCatalog() (*Catalog, error) {
	return dataset.Default()
}

// SyntheticCatalog generates an n-service ecosystem with the
// calibrated proportions, for scaling studies.
func SyntheticCatalog(n int, seed int64) (*Catalog, error) {
	return dataset.Synthetic(n, seed)
}

// BaselineAttacker is the paper's threat model: the victim's cellphone
// number plus SMS-code interception.
func BaselineAttacker() AttackerProfile {
	return ecosys.BaselineAttacker()
}

// Account constructs an AccountID.
func Account(service string, platform PlatformKind) AccountID {
	return AccountID{Service: service, Platform: platform}
}

// PathLayers computes the overlapping dependency-depth statistics over
// a graph (the §IV.B.1 percentages).
func PathLayers(g *Graph) DepthStats {
	return strategy.Solve(g).DepthStats()
}
