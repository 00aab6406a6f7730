package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// wallClockFields are the Summary fields that depend on the clock rather
// than on the inputs; canonicalSummary strips them.
var wallClockFields = []string{"Duration", "ActiveDuration", "VictimsPerSec", "ResumeVictimsPerSec", "PhaseTimings"}

// canonicalSummary is a Summary's canonical JSON: wall-clock fields
// stripped, keys sorted (encoding/json sorts map keys).
func canonicalSummary(t *testing.T, sum *Summary) []byte {
	t.Helper()
	raw, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, f := range wallClockFields {
		delete(m, f)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// summaryDigest is the SHA-256 of canonicalSummary, hex-encoded.
func summaryDigest(t *testing.T, sum *Summary) string {
	t.Helper()
	d := sha256.Sum256(canonicalSummary(t, sum))
	return hex.EncodeToString(d[:])
}

// goldenDigests pins every built-in scenario's Summary. The values were
// captured before the engine's ablation paths were removed; a change to
// any of them means a behaviour change, not a refactor.
var goldenDigests = map[string]string{
	"baseline":       "e3a16755f22473eaf292ed778f1609dde507e3415c37fd7ef2c56cb5b04545d8",
	"fortified":      "a22b5c16540a04845642dbef51de69386a39a6f9ef296b8d6009c4e5229d5f04",
	"a53-mix":        "059422542b9b2d93e9c9e95b944c638aa061f167d7c7990d700753a81948a8d2",
	"harden-email":   "518bfec63aa7ae0baec13b806159be90b2c8aa7643dc098459793d5881233146",
	"budget-4of16":   "e3706dafcc6134612c4b89e63b03b33417a7ab4312159b28d661e53f8ba72c54",
	"fintech-leaked": "38d8f4c274164045cbde74d8e1d479eaaf14ff31a1eb6e34f1142e0159d8af59",
}

// TestGoldenSummaries runs each built-in scenario through RunScenario on
// one fixed engine — 10k subscribers, seed 7, 1024-subscriber shards,
// two workers, the table backend at the default key space — and checks
// its canonical Summary digest.
func TestGoldenSummaries(t *testing.T) {
	eng, err := New(Config{Population: testPop(t, 10000, 1024), Workers: 2, Backend: "table"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range BuiltinScenarios() {
		sum, err := eng.RunScenario(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := goldenDigests[sc.Name]
		if !ok {
			t.Errorf("built-in scenario %s has no golden digest", sc.Name)
			continue
		}
		if got := summaryDigest(t, sum); got != want {
			t.Errorf("scenario %s: summary digest %s, want pinned %s\n%s", sc.Name, got, want, canonicalSummary(t, sum))
		}
	}
}

// TestSweepRowsMatchRunScenario pins single normalization: every
// built-in scenario's sweep row must equal its RunScenario Summary.
// RunSweep normalizes its list and each run normalizes its scenario
// again, so without an idempotent normalize a53-mix's "no A5/0 cells"
// (a50Fraction -1) reached the sweep as the 20% default.
func TestSweepRowsMatchRunScenario(t *testing.T) {
	cfg := Config{Population: testPop(t, 2000, 256), KeyBits: 10, Workers: 2, SweepParallel: 2}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := BuiltinScenarios()
	sw, err := eng.RunSweep(context.Background(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scenarios {
		want, err := eng.RunScenario(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		got, exp := canonicalSummary(t, sw.Results[i].Summary), canonicalSummary(t, want)
		if string(got) != string(exp) {
			t.Errorf("scenario %s: sweep row differs from RunScenario:\nsweep %s\nrun   %s", sc.Name, got, exp)
		}
	}
}
