package actfort

import (
	"context"

	"github.com/actfort/actfort/internal/campaign"
	"github.com/actfort/actfort/internal/population"
)

// Population-scale campaign surface: generate a seeded synthetic
// subscriber base and run the chain-reaction attack across it,
// measuring how far one sniffed SMS OTP propagates through the
// ecosystem at operator scale. See cmd/campaign for the CLI.

type (
	// PopulationConfig parameterizes the subscriber generator.
	PopulationConfig = population.Config
	// Population is a deterministic sharded subscriber base.
	Population = population.Population
	// CampaignConfig parameterizes a campaign engine.
	CampaignConfig = campaign.Config
	// CampaignEngine runs chain-reaction attacks over a population.
	CampaignEngine = campaign.Engine
	// CampaignSummary aggregates a campaign run's metrics.
	CampaignSummary = campaign.Summary
	// CampaignScenario declares one campaign run: countermeasure
	// policy, radio environment, attacker budget and victim segment.
	CampaignScenario = campaign.Scenario
	// SweepSummary is the comparative output of a scenario sweep.
	SweepSummary = campaign.SweepSummary
)

// NewPopulation builds a subscriber generator. Subscriber i is a pure
// function of (seed, i); shards materialize on demand.
func NewPopulation(cfg PopulationConfig) (*Population, error) {
	return population.New(cfg)
}

// NewCampaign compiles a campaign engine: the TDG-derived attack plan
// and the shared A5/1 cracker backend (a lookup-tuned TMTO table by
// default).
func NewCampaign(cfg CampaignConfig) (*CampaignEngine, error) {
	return campaign.New(cfg)
}

// RunCampaign is the one-call form: generate, attack, aggregate. The
// zero scenario is the paper's baseline environment.
func RunCampaign(ctx context.Context, cfg CampaignConfig, sc CampaignScenario) (*CampaignSummary, error) {
	eng, err := campaign.New(cfg)
	if err != nil {
		return nil, err
	}
	return eng.RunScenario(ctx, sc)
}

// RunSweep is the one-call fortification evaluator: every scenario
// runs against the same population, cracker table and rig pool, and
// the comparative summary shows the per-scenario takeover-mass deltas.
// A nil scenario list runs campaign.DefaultSweep (baseline, fortified,
// A5/3 mix).
func RunSweep(ctx context.Context, cfg CampaignConfig, scenarios []CampaignScenario) (*SweepSummary, error) {
	eng, err := campaign.New(cfg)
	if err != nil {
		return nil, err
	}
	return eng.RunSweep(ctx, scenarios)
}
