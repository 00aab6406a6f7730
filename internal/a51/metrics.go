package a51

import "github.com/actfort/actfort/internal/obs"

// TMTO lookup telemetry, registered on the process-wide obs registry.
// Handles are package-level so the hot path (the batched replay
// engine) pays only atomic adds — one per lookup, round or batch,
// never per chain position. Campaign-scale context for the
// numbers: lookups arrive deduplicated by the sniffer's Kc caches, so
// these count distinct crack attempts, not sessions.
var (
	metLookups = obs.Default.NewCounter("a51_tmto_lookups_total",
		"A5/1 key recoveries attempted against the TMTO table.")
	metReplays = obs.Default.NewCounter("a51_chain_replays_total",
		"Stored chains replayed while resolving lookups (merge basins make this >1 per lookup).")
	metFingerprints = obs.Default.NewCounter("a51_chain_fingerprints_total",
		"Keystream fingerprints computed by distinguished-point walks and chain replays.")
	metWalkSteps = obs.Default.NewHistogram("a51_dp_walk_steps",
		"Distinguished-point walk length per lookup, in fingerprint steps.",
		obs.ExpBuckets(1, 2, 10))
	metFallbacks = obs.Default.NewCounter("a51_exhaustive_fallbacks_total",
		"Lookups on frames outside the table window, resolved by the bitsliced exhaustive sweep.")
)
