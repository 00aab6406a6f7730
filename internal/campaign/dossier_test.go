package campaign

import (
	"context"
	"testing"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/population"
)

// TestDossierFactorsDecideTakeovers pins the dossier → factor mapping
// field by field. On the default catalog no takeover path needs the
// address, so the goldens cannot see that bit; here three services
// fall only to SMS plus one leaked field each — the real name, the
// address and the citizen ID — and every subscriber holds all three.
// With full interception, a leak tier's takeovers of each service must
// equal its victims whose dossier carries that field: breach rows give
// name and address to all and the citizen ID to some, phishing-WiFi
// rows and clean victims give nothing.
func TestDossierFactorsDecideTakeovers(t *testing.T) {
	fields := []ecosys.FactorKind{ecosys.FactorRealName, ecosys.FactorAddress, ecosys.FactorCitizenID}
	bits := []population.Dossier{population.DossierRealName, population.DossierAddress, population.DossierCitizenID}
	var specs []*ecosys.ServiceSpec
	for _, f := range fields {
		specs = append(specs, &ecosys.ServiceSpec{
			Name:   "by-" + f.Short(),
			Domain: ecosys.DomainFintech,
			Presences: []ecosys.Presence{{
				Platform: ecosys.PlatformWeb,
				Paths: []ecosys.AuthPath{{ID: "reset-1", Purpose: ecosys.PurposeReset,
					Factors: []ecosys.FactorKind{ecosys.FactorCellphone, ecosys.FactorSMSCode, f}}},
			}},
		})
	}
	cat, err := ecosys.NewCatalog(specs)
	if err != nil {
		t.Fatal(err)
	}
	// EnrollmentScale 100 clamps every adoption rate at 1.
	pop, err := population.New(population.Config{Seed: 7, Size: 3000, ShardSize: 512, Catalog: cat, EnrollmentScale: 100})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Population: pop, KeyBits: 10, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	inTier := map[string]func(*population.Subscriber) bool{
		LeakTierBreach: func(s *population.Subscriber) bool { return s.Class == population.LeakBreach },
		LeakTierWiFi:   func(s *population.Subscriber) bool { return s.Class == population.LeakWiFi },
		LeakTierClean:  func(s *population.Subscriber) bool { return !s.Leaked },
		LeakTierLeaked: func(s *population.Subscriber) bool { return s.Leaked },
	}
	for _, tier := range []string{LeakTierBreach, LeakTierWiFi, LeakTierClean, LeakTierLeaked} {
		var victims, found int64
		want := make([]int64, len(fields))
		for i := range pop.NumShards() {
			sh := pop.Shard(i)
			for j := range sh.Subscribers {
				sub := &sh.Subscribers[j]
				if !inTier[tier](sub) {
					continue
				}
				victims++
				d := pop.Dossier(sub.Index)
				if d&population.DossierFound != 0 {
					found++
				}
				for k, b := range bits {
					if d&b != 0 {
						want[k]++
					}
				}
			}
			sh.Release()
		}
		sum, err := eng.RunScenario(context.Background(), Scenario{Name: tier, Segment: VictimSegment{LeakTier: tier}})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Targeted != victims || sum.Intercepted != victims {
			t.Fatalf("%s: targeted %d, intercepted %d, tier holds %d", tier, sum.Targeted, sum.Intercepted, victims)
		}
		if sum.DossierHits != found {
			t.Errorf("%s: %d dossier hits, want %d", tier, sum.DossierHits, found)
		}
		for k, spec := range specs {
			if got := sum.ServiceTakeovers[k]; got != want[k] {
				t.Errorf("%s: %s fell %d times, want %d", tier, spec.Name, got, want[k])
			}
		}
		switch tier {
		case LeakTierBreach:
			if want[0] != victims || want[1] != victims || want[2] == 0 || want[2] == victims {
				t.Errorf("breach: dossier fields %v over %d victims, want name and address for all, citizen ID for some", want, victims)
			}
		case LeakTierWiFi, LeakTierClean:
			if victims == 0 || want[0]+want[1]+want[2] != 0 {
				t.Errorf("%s: dossier fields %v over %d victims, want none", tier, want, victims)
			}
		}
	}
}
