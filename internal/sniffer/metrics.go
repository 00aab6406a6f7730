package sniffer

import "github.com/actfort/actfort/internal/obs"

// Rig telemetry on the process-wide obs registry. These mirror the
// per-rig Stats counters but aggregate across every rig in the process
// and update live — the campaign's final Summary still reports the
// authoritative per-run Stats totals, while these families answer "is
// the Kc cache working NOW" mid-run. Counter increments ride alongside
// the existing Stats updates (already under s.mu or per-batch), so the
// hot path pays one extra atomic add per counted event.
var (
	metKcReuseHits = obs.Default.NewCounter("sniffer_kc_reuse_hits_total",
		"Sessions decrypted from the per-subscriber (IMSI, RAND) key cache — the Kc-reuse weakness paying off.")
	metKcReuseMisses = obs.Default.NewCounter("sniffer_kc_reuse_misses_total",
		"Eligible sessions whose auth context had not been cracked yet.")
	metCrackCacheHits = obs.Default.NewCounter("sniffer_crack_cache_hits_total",
		"Sessions decrypted from the per-session replay key cache.")
	metCracksAttempted = obs.Default.NewCounter("sniffer_cracks_attempted_total",
		"Fresh A5/1 key recoveries attempted through the cracker backend.")
	metCracksSucceeded = obs.Default.NewCounter("sniffer_cracks_succeeded_total",
		"Fresh key recoveries that produced a session key.")
	metA53Abandoned = obs.Default.NewCounter("sniffer_a53_abandoned_total",
		"Complete sessions abandoned because the announced cipher was A5/3.")
	metDecoded = obs.Default.NewCounter("sniffer_messages_decoded_total",
		"SMS TPDUs successfully reassembled and decoded.")
	metFeedLanes = obs.Default.NewHistogram("sniffer_feed_lane_occupancy",
		"Decryption lanes (encrypted payload bursts) per FeedBatch call — how full the 64-lane batch cipher runs.",
		obs.ExpBuckets(1, 4, 8))
	metCrackBatch = obs.Default.NewHistogram("sniffer_crack_batch_seconds",
		"Wall time of each batched RecoverBatch call FeedBatch prefetches its fresh cracks through.",
		obs.LatencyBuckets)
)
