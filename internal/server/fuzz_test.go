package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/actfort/actfort/internal/campaign"
)

// scenarioSeeds is the fuzz corpus: the scenario-file examples from
// cmd/campaign/README.md plus the edge shapes the decoder must rule
// on (unknown fields, trailing bytes, out-of-range probabilities).
var scenarioSeeds = []string{
	`{}`,
	`{"name": "baseline"}`,
	`{"name": "fortified", "policy": "fortify-all"}`,
	`{"name": "half-fleet", "budget": {"receivers": 8, "cellChannels": 16}, "segment": {"domain": "fintech", "leakTier": "leaked"}}`,
	`{"name": "noisy", "radio": {"a50Fraction": 0.4, "a53Fraction": -1, "reauthSkip": 0.9, "otpSessions": 5}, "platform": "web"}`,
	`{"name": "bad", "radio": {"reauthSkip": 5}}`,
	`{"name": "x"} trailing`,
	`{"nope": 1}`,
	`[{"name": "not-an-object"}]`,
	`null`,
	`{"name": "\u0000"}`,
}

// FuzzScenarioJSON fuzzes the /v1/scenario request decoder: it must
// never panic, and any input it accepts must round-trip — marshal then
// re-decode to the identical Scenario — and survive validation without
// panicking. A decoder that accepts what it cannot re-read would make
// the service's 400 surface unstable.
func FuzzScenarioJSON(f *testing.F) {
	for _, s := range scenarioSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := DecodeScenario(bytes.NewReader(data))
		if err != nil {
			return // rejected is fine; panicking is not
		}
		b, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		sc2, err := DecodeScenario(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("accepted scenario does not re-decode: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(sc, sc2) {
			t.Fatalf("round-trip changed the scenario:\n%#v\n%#v", sc, sc2)
		}
		// Validation decides accept/reject; either way, no panic. An
		// accepted scenario normalizes idempotently.
		if norm, err := sc.Normalized(); err == nil {
			if again, err := norm.Normalized(); err != nil || again != norm {
				t.Fatalf("normalization not idempotent: %v\n%#v\n%#v", err, norm, again)
			}
		}
	})
}

// FuzzSweepRequest fuzzes the /v1/sweep request decoder with the same
// contract over scenario lists, plus the sweep-level validation
// (duplicate names, empty list).
func FuzzSweepRequest(f *testing.F) {
	f.Add([]byte(`[{"name": "baseline"}, {"name": "fortified", "policy": "fortify-all"}, {"name": "half-fleet", "budget": {"receivers": 8, "cellChannels": 16}, "segment": {"domain": "fintech", "leakTier": "leaked"}}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{}]`))
	f.Add([]byte(`[{"name":"a"},{"name":"a"}]`))
	f.Add([]byte(`[{"name":"a"}] , [{"name":"b"}]`))
	for _, s := range scenarioSeeds {
		f.Add([]byte("[" + s + "]"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		list, err := DecodeSweep(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(list) == 0 {
			t.Fatal("decoder accepted an empty sweep")
		}
		b, err := json.Marshal(list)
		if err != nil {
			t.Fatalf("accepted sweep does not marshal: %v", err)
		}
		list2, err := DecodeSweep(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("accepted sweep does not re-decode: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(list, list2) {
			t.Fatalf("round-trip changed the sweep:\n%#v\n%#v", list, list2)
		}
		campaign.NormalizeSweep(list) // must not panic
	})
}
