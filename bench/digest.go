package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"github.com/actfort/actfort/internal/campaign"
	"github.com/actfort/actfort/internal/report"
)

// wallClockFields are the Summary fields that depend on the clock, not
// on the inputs; a digest leaves them out so equal inputs give equal
// digests across repetitions, processes and commits.
var wallClockFields = []string{"Duration", "ActiveDuration", "VictimsPerSec", "ResumeVictimsPerSec", "PhaseTimings"}

// digestJSON is the SHA-256 of the canonical form of a rendered
// Summary or SweepSummary: wall-clock fields stripped (for a sweep also
// its duration, its per-scenario durations and its rig-build count,
// which depends on how concurrent scenarios interleave), keys sorted.
func digestJSON(raw []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v map[string]any
	if err := dec.Decode(&v); err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	if results, ok := v["results"].([]any); ok {
		delete(v, "duration")
		delete(v, "rigsBuilt")
		for _, r := range results {
			rm, ok := r.(map[string]any)
			if !ok {
				return "", fmt.Errorf("digest: sweep result is not an object")
			}
			delete(rm, "duration")
			if s, ok := rm["summary"].(map[string]any); ok {
				stripWallClock(s)
			}
		}
	} else {
		stripWallClock(v)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func stripWallClock(m map[string]any) {
	for _, f := range wallClockFields {
		delete(m, f)
	}
}

// digestOf renders v the way campaignd answers a query and digests it.
func digestOf(v any) (string, error) {
	b, err := report.JSON(v)
	if err != nil {
		return "", err
	}
	return digestJSON(b)
}

// checkScenario returns the invariants one scenario's Summary breaks.
// base is the baseline Summary over the same population, or nil when
// sum is the baseline; size is the population size.
func checkScenario(sum, base *campaign.Summary, size int) []string {
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf("%s: ", sum.Scenario)+fmt.Sprintf(format, args...))
	}
	if sum.CoverageFraction != 1 || sum.ShardsQuarantined != 0 {
		fail("coverage %g with %d quarantined shards", sum.CoverageFraction, sum.ShardsQuarantined)
	}
	if sum.Subscribers != int64(size) {
		fail("processed %d subscribers, want %d", sum.Subscribers, size)
	}
	if sum.Intercepted == 0 {
		fail("nobody intercepted")
	}
	switch sum.Scenario {
	case "baseline":
		if sum.VictimsCompromised == 0 {
			fail("nobody compromised")
		}
	case "fortified":
		if base == nil || sum.AccountsCompromised >= base.AccountsCompromised {
			fail("fortified catalog did not reduce accounts compromised")
		}
	case "a53-mix":
		if sum.Sniffer.A53Abandoned == 0 {
			fail("no A5/3 session abandoned")
		}
	case "budget-4of16":
		if sum.Targeted == 0 || math.Abs(float64(sum.Covered)/float64(sum.Targeted)-0.25) > 0.02 {
			fail("covered %d of %d targeted, want 0.25±0.02", sum.Covered, sum.Targeted)
		}
	}
	return bad
}
