package checkpoint

import "github.com/actfort/actfort/internal/obs"

// Durability telemetry on the process-wide obs registry. The journal
// is used under its run's lock and appends happen per shard, so these
// add nothing measurable to the write path — but they make the fsync cost
// of durable campaigns visible live (the dominant per-shard overhead
// on spinning or network disks).
var (
	metJournalBytes = obs.Default.NewCounter("checkpoint_journal_bytes_total",
		"Bytes of framed shard records appended to the run journal.")
	metJournalFsync = obs.Default.NewHistogram("checkpoint_journal_fsync_seconds",
		"fsync latency of each journal append (one observation per appended shard).",
		obs.LatencyBuckets)
	metSnapshotBytes = obs.Default.NewCounter("checkpoint_snapshot_bytes_total",
		"Bytes written to snapshot files (temp write, before rename).")
	metSnapshotSecs = obs.Default.NewHistogram("checkpoint_snapshot_seconds",
		"Wall time of each snapshot fold: temp write, fsync, rename, journal truncate.",
		obs.LatencyBuckets)
)
