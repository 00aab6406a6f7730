package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/actfort/actfort/internal/checkpoint"
	"github.com/actfort/actfort/internal/population"
)

// Checkpoint opts a run into the durability layer: every completed
// shard is journaled to Dir, periodic snapshots bound resume cost, and
// a rerun over the same directory — same population, scenario and
// cracker table, enforced by the manifest — continues where the dead
// process stopped. The resumed Summary is byte-identical to an
// uninterrupted run's (Duration/VictimsPerSec aside): shard results
// are pure functions of the seed and Summary.Merge is commutative
// integer addition, so completion order and process boundaries never
// show in the totals.
type Checkpoint struct {
	// Dir is the checkpoint directory (one scenario per directory; a
	// sweep gives each scenario a subdirectory named after it).
	Dir string
	// SnapshotEvery is the journaled-shard count between snapshot folds
	// (0 = checkpoint.DefaultSnapshotEvery).
	SnapshotEvery int
}

// scenarioHash digests the normalized scenario — policy, platform,
// radio environment, budget, segment — into the manifest key. The
// worker count is absent deliberately: it cannot change results, so a
// run may resume under a different pool width.
func scenarioHash(norm Scenario) (string, error) {
	b, err := json.Marshal(norm)
	if err != nil {
		return "", fmt.Errorf("campaign: hash scenario: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// manifest pins every input the run's results depend on, the cracker
// backend's identity included: a mid-run backend swap would change
// crack outcomes, so resume refuses it.
func (e *Engine) manifest(norm Scenario) (checkpoint.Manifest, error) {
	h, err := scenarioHash(norm)
	if err != nil {
		return checkpoint.Manifest{}, err
	}
	pop := e.cfg.Population
	return checkpoint.Manifest{
		PopulationSeed:     pop.Seed(),
		PopulationSize:     pop.Size(),
		ShardSize:          pop.ShardSize(),
		LeakFraction:       pop.LeakFraction(),
		EnrollmentScale:    pop.EnrollmentScale(),
		FingerprintVersion: population.FingerprintVersion,
		ScenarioHash:       h,
		TableIdentity:      e.cracker.Identity(),
		NumShards:          pop.NumShards(),
		ShardLo:            e.cfg.ShardLo,
		ShardHi:            e.cfg.ShardHi,
	}, nil
}

// ckptRun is one scenario's open journal plus the state recovered from
// a previous process: the aggregate's seed (snapshot + replayed journal
// records, already merged) and the done-shard bitmap the feeder skips.
// The timing fields feed the cumulative-throughput accounting: start
// anchors this process's contribution, activePrior carries the wall
// clock earlier processes banked in their snapshots (journal records
// appended after the last snapshot lose their tail of active time —
// the cost of not fsyncing a clock on every append), and subsPrior/
// resumed let the finalizer report a separate post-resume rate.
type ckptRun struct {
	j           *checkpoint.Journal
	seed        *Summary
	done        []bool
	start       time.Time
	activePrior time.Duration
	subsPrior   int64
	resumed     bool
}

// openCheckpoint opens (or resumes) the scenario's checkpoint
// directory and rebuilds the aggregate the dead process had journaled.
func (e *Engine) openCheckpoint(dir string, norm Scenario) (*ckptRun, error) {
	m, err := e.manifest(norm)
	if err != nil {
		return nil, err
	}
	every := 0
	if e.cfg.Checkpoint != nil {
		every = e.cfg.Checkpoint.SnapshotEvery
	}
	j, st, err := checkpoint.Open(dir, m, checkpoint.Options{
		SnapshotEvery: every,
		Fault:         e.cfg.Fault,
	})
	if err != nil {
		return nil, err
	}
	seed := newSummary(len(e.cfg.Population.Services()))
	if st.Snapshot != nil {
		if err := json.Unmarshal(st.Snapshot, seed); err != nil {
			j.Close()
			return nil, fmt.Errorf("campaign: decode snapshot summary: %w", err)
		}
	}
	for _, rec := range st.Records {
		part := newSummary(len(e.cfg.Population.Services()))
		if err := json.Unmarshal(rec.Payload, part); err != nil {
			j.Close()
			return nil, fmt.Errorf("campaign: decode journaled shard %d: %w", rec.Shard, err)
		}
		seed.Merge(part)
	}
	return &ckptRun{
		j:           j,
		seed:        seed,
		done:        st.Done,
		start:       time.Now(),
		activePrior: seed.ActiveDuration,
		subsPrior:   seed.Subscribers,
		resumed:     st.Snapshot != nil || len(st.Records) > 0,
	}, nil
}

// Partial is one completed shard range of a multi-process run: the
// manifest naming its inputs and owned range, and its final summary.
type Partial struct {
	Dir      string
	Manifest checkpoint.Manifest
	Summary  *Summary
}

// LoadPartial reads a completed checkpoint directory's manifest and
// result for merging.
func LoadPartial(dir string) (*Partial, error) {
	m, err := checkpoint.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	b, err := checkpoint.ReadResult(dir)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("campaign: decode result %s: %w", dir, err)
	}
	return &Partial{Dir: dir, Manifest: m, Summary: &s}, nil
}

// MergePartials combines the per-range summaries of one multi-process
// run into the whole-population Summary. It refuses partials whose
// run inputs disagree (manifest DiffRun) or whose shard ranges fail to
// tile [0, NumShards) exactly — a missing or overlapping range would
// silently under- or double-count. The merged totals are identical to
// a single-process run's; Workers sums across processes and the
// wall-clock fields are zeroed (concurrent processes have no single
// meaningful duration).
func MergePartials(parts []*Partial) (*Summary, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("campaign: merge: no partial results")
	}
	sorted := append([]*Partial(nil), parts...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Manifest.ShardLo < sorted[j].Manifest.ShardLo
	})
	ref := sorted[0].Manifest
	next := 0
	for _, p := range sorted {
		if diff := ref.DiffRun(p.Manifest); len(diff) > 0 {
			return nil, fmt.Errorf("campaign: merge: %s and %s are from different runs:\n  %s",
				sorted[0].Dir, p.Dir, diff[0])
		}
		if p.Manifest.ShardLo != next {
			if p.Manifest.ShardLo < next {
				return nil, fmt.Errorf("campaign: merge: shard ranges overlap at %d (%s)", p.Manifest.ShardLo, p.Dir)
			}
			return nil, fmt.Errorf("campaign: merge: shards [%d, %d) missing (no partial covers them)", next, p.Manifest.ShardLo)
		}
		next = p.Manifest.ShardHi
	}
	if next != ref.NumShards {
		return nil, fmt.Errorf("campaign: merge: shards [%d, %d) missing (no partial covers them)", next, ref.NumShards)
	}

	merged := &Summary{}
	b, err := json.Marshal(sorted[0].Summary)
	if err != nil {
		return nil, fmt.Errorf("campaign: merge: %w", err)
	}
	if err := json.Unmarshal(b, merged); err != nil {
		return nil, fmt.Errorf("campaign: merge: %w", err)
	}
	for _, p := range sorted[1:] {
		merged.Merge(p.Summary)
		merged.Workers += p.Summary.Workers
	}
	merged.recomputeCoverage()
	merged.Duration = 0
	merged.VictimsPerSec = 0
	merged.ActiveDuration = 0
	merged.ResumeVictimsPerSec = 0
	merged.PhaseTimings = nil
	return merged, nil
}
