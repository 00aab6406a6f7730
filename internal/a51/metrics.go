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

// Lane fill of the 64-lane bitsliced passes, by use: "keystream" for
// EncryptBurstsBatch (synthesis encryption and the sniffer's payload
// decryption), "fingerprint" for the chain replay's fpBatch and
// "key_check" for the candidate bursts verifyParked checks. lanes over
// 64 × passes is the fill. A replay round's block below
// scalarReplayCutoff runs the scalar clock instead and counts one
// scalar lane per key. Each call adds its counts once.
const (
	passesHelp = "64-lane bitsliced cipher passes run, by use."
	lanesHelp  = "Lanes filled in 64-lane bitsliced cipher passes, by use."
	scalarHelp = "Keys a chain replay ran through the scalar clock, in blocks below the bitsliced cutoff, by use."
)

var (
	metKeystreamPasses = obs.Default.NewCounter("a51_bitsliced_passes_total", passesHelp, obs.L("use", "keystream"))
	metKeystreamLanes  = obs.Default.NewCounter("a51_bitsliced_lanes_total", lanesHelp, obs.L("use", "keystream"))
	fingerprintFill    = newFillCounters("fingerprint")
	keyCheckFill       = newFillCounters("key_check")
)

// fillCounters are one replay use's lane-fill series.
type fillCounters struct {
	passes, lanes, scalar *obs.Counter
}

func newFillCounters(use string) fillCounters {
	return fillCounters{
		passes: obs.Default.NewCounter("a51_bitsliced_passes_total", passesHelp, obs.L("use", use)),
		lanes:  obs.Default.NewCounter("a51_bitsliced_lanes_total", lanesHelp, obs.L("use", use)),
		scalar: obs.Default.NewCounter("a51_scalar_lanes_total", scalarHelp, obs.L("use", use)),
	}
}

// laneFill counts one RecoverBatch call's blocks of one use.
type laneFill struct {
	passes, lanes, scalar int64
}

// add counts a block of n keys: one bitsliced pass from
// scalarReplayCutoff keys up, else n scalar lanes.
func (f *laneFill) add(n int) {
	if n < scalarReplayCutoff {
		f.scalar += int64(n)
		return
	}
	f.passes++
	f.lanes += int64(n)
}

// flush adds the call's counts to c.
func (f *laneFill) flush(c fillCounters) {
	c.passes.Add(f.passes)
	c.lanes.Add(f.lanes)
	c.scalar.Add(f.scalar)
}
