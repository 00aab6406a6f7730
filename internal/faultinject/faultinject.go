// Package faultinject is the deterministic fault-injection harness the
// campaign's recovery paths are tested with. Durability code that is
// only ever exercised by real crashes is durability code that has never
// been exercised at all, so every failure mode the checkpoint layer
// claims to survive — a process dying mid-journal-append, a snapshot
// torn between temp write and rename, a shard attempt failing
// transiently, a shard failing every attempt — can be injected here,
// keyed by a seed so a failing run is replayable bit for bit.
//
// Three fault families:
//
//   - Crash points: named sites inside recovery-critical write paths
//     (journal append, snapshot write/rename, journal truncate). A
//     crash is armed for the Nth hit of a point; when it fires, the
//     instrumented site deliberately leaves the same on-disk state a
//     kill -9 at that instant would (a torn frame, an orphaned temp
//     file) and returns ErrCrash, which callers treat as process
//     death: abort immediately, write nothing more.
//   - Transient shard errors: shard attempt a fails while a < k, where
//     k is drawn per shard from the seed — so bounded retry with
//     backoff deterministically succeeds once it outlasts k.
//   - Poisoned shards: listed shards fail every attempt, forcing the
//     quarantine path (the run degrades to a partial report with an
//     explicit coverage fraction instead of aborting).
//
// A nil *Injector is inert: every method is nil-receiver-safe and
// reports no faults, so production paths carry no conditionals.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names one instrumented site in a recovery-critical path.
type Point string

// The instrumented sites of the checkpoint write path.
const (
	// PointJournalAppend fires inside Journal.Append: the frame is
	// half-written (torn) when the crash triggers, exactly what a kill
	// -9 mid-write leaves behind.
	PointJournalAppend Point = "journal.append"
	// PointSnapshotWrite fires while the snapshot temp file is being
	// written: the temp is left torn and never renamed, so resume must
	// ignore it.
	PointSnapshotWrite Point = "snapshot.write"
	// PointSnapshotRename fires after the snapshot rename commits but
	// before the now-redundant journal is truncated, so resume sees
	// journal records already covered by the snapshot bitmap.
	PointSnapshotRename Point = "snapshot.rename"
	// PointJournalTruncate fires after the post-snapshot journal
	// truncate, before any later append.
	PointJournalTruncate Point = "journal.truncate"
)

// Points lists every instrumented site, in write-path order — the
// iteration set for interrupted-at-every-crash-point test matrices.
func Points() []Point {
	return []Point{PointJournalAppend, PointSnapshotWrite, PointSnapshotRename, PointJournalTruncate}
}

// ErrCrash is the injected process death. Callers must treat it the
// way a kill -9 treats them: stop immediately and write nothing more.
var ErrCrash = errors.New("faultinject: injected crash")

// ErrTransient is an injected shard failure that clears after retries.
var ErrTransient = errors.New("faultinject: injected transient shard failure")

// ErrPoisoned is an injected shard failure that never clears; the
// engine quarantines the shard after exhausting its attempts.
var ErrPoisoned = errors.New("faultinject: poisoned shard")

// IsTransient reports whether a shard error is worth retrying.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// Config parameterizes an Injector.
type Config struct {
	// Seed keys the transient-failure draws; a fixed seed replays the
	// identical fault schedule.
	Seed uint64
	// Crash maps a point to the 1-based hit count that kills the
	// process: {PointJournalAppend: 3} crashes on the third append.
	Crash map[Point]int
	// TransientRate is the per-draw probability that a shard's leading
	// attempt fails transiently; the per-shard consecutive-failure
	// count is geometric in it (0 = no transient faults).
	TransientRate float64
	// Poisoned lists shard indices that fail every attempt.
	Poisoned []int
}

// Injector decides, deterministically, which operations fail. Safe
// for concurrent use; the zero of *Injector (nil) injects nothing.
type Injector struct {
	cfg      Config
	poisoned map[int]bool

	mu   sync.Mutex
	hits map[Point]int
}

// New builds an Injector from cfg. A nil return for an all-zero config
// would save nothing, so New always returns a live injector; pass a
// nil *Injector where no faults are wanted.
func New(cfg Config) (*Injector, error) {
	if cfg.TransientRate < 0 || cfg.TransientRate >= 1 {
		if cfg.TransientRate != 0 {
			return nil, fmt.Errorf("faultinject: transient rate %g out of [0, 1)", cfg.TransientRate)
		}
	}
	for p, n := range cfg.Crash {
		if n <= 0 {
			return nil, fmt.Errorf("faultinject: crash point %s armed for hit %d (want >= 1)", p, n)
		}
	}
	in := &Injector{
		cfg:      cfg,
		poisoned: make(map[int]bool, len(cfg.Poisoned)),
		hits:     make(map[Point]int),
	}
	for _, s := range cfg.Poisoned {
		in.poisoned[s] = true
	}
	return in, nil
}

// At records one hit of point p and returns ErrCrash when the armed
// count is reached. The instrumented site is responsible for leaving
// kill-9-equivalent on-disk state before propagating the error.
func (in *Injector) At(p Point) error {
	if in == nil || len(in.cfg.Crash) == 0 {
		return nil
	}
	armed, ok := in.cfg.Crash[p]
	if !ok {
		return nil
	}
	in.mu.Lock()
	in.hits[p]++
	fire := in.hits[p] == armed
	in.mu.Unlock()
	if fire {
		return fmt.Errorf("%w at %s (hit %d)", ErrCrash, p, armed)
	}
	return nil
}

// ShardAttempt reports the injected outcome of attempt (0-based) on a
// shard: nil to proceed, ErrPoisoned for quarantined-forever shards,
// ErrTransient while the shard's seeded leading-failure count has not
// been outlasted.
func (in *Injector) ShardAttempt(shard, attempt int) error {
	if in == nil {
		return nil
	}
	if in.poisoned[shard] {
		return fmt.Errorf("%w: shard %d attempt %d", ErrPoisoned, shard, attempt)
	}
	if in.cfg.TransientRate <= 0 {
		return nil
	}
	if attempt < in.transientFailures(shard) {
		return fmt.Errorf("%w: shard %d attempt %d", ErrTransient, shard, attempt)
	}
	return nil
}

// transientFailures draws the number of consecutive leading failures
// for one shard: geometric in TransientRate, deterministic in
// (Seed, shard).
func (in *Injector) transientFailures(shard int) int {
	k := 0
	for k < 32 && unit(mix(in.cfg.Seed, 0x7472616E7369, uint64(shard), uint64(k))) < in.cfg.TransientRate {
		k++
	}
	return k
}

// Backoff returns the bounded exponential delay before retry attempt
// (0-based: the delay after the first failure is base): base<<attempt,
// capped at max. Non-positive base or max disables the delay.
func Backoff(base time.Duration, attempt int, max time.Duration) time.Duration {
	if base <= 0 || max <= 0 {
		return 0
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	return d
}

// ParseCrash parses a CLI crash spec: comma-separated "point:hit"
// pairs, e.g. "journal.append:3,snapshot.rename:1".
func ParseCrash(spec string) (map[Point]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	known := make(map[Point]bool)
	names := make([]string, 0, 4)
	for _, p := range Points() {
		known[p] = true
		names = append(names, string(p))
	}
	sort.Strings(names)
	out := make(map[Point]int)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		point, hitStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: crash spec %q: want point:hit", part)
		}
		p := Point(point)
		if !known[p] {
			return nil, fmt.Errorf("faultinject: unknown crash point %q (known: %s)", point, strings.Join(names, ", "))
		}
		hit, err := strconv.Atoi(hitStr)
		if err != nil || hit <= 0 {
			return nil, fmt.Errorf("faultinject: crash spec %q: hit count must be a positive integer", part)
		}
		out[p] = hit
	}
	return out, nil
}

// ParseShardList parses a comma-separated shard index list ("3,17").
func ParseShardList(spec string) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("faultinject: shard list entry %q: want a non-negative integer", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// mix is splitmix64 over the folded arguments — the same style of
// seeded draw the population generator uses, so fault schedules are
// reproducible across runs and machines.
func mix(vs ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		h ^= v + 0x9E3779B97F4A7C15 + h<<6 + h>>2
		z := h
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		h = z ^ z>>31
	}
	return h
}

// unit maps a draw to [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}
