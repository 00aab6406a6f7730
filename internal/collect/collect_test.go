package collect

import (
	"strings"
	"testing"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/identity"
)

func testCatalog() *ecosys.Catalog {
	return ecosys.MustCatalog([]*ecosys.ServiceSpec{
		{
			Name: "a", Domain: ecosys.DomainTravel,
			Presences: []ecosys.Presence{
				{
					Platform: ecosys.PlatformWeb,
					Exposes: []ecosys.Exposure{
						{Field: ecosys.InfoRealName},
						{Field: ecosys.InfoCitizenID, Mask: ecosys.MaskSpec{Masked: true, VisiblePrefix: 6}},
						{Field: ecosys.InfoAcquaintance},
					},
				},
				{
					Platform: ecosys.PlatformMobile,
					Exposes:  []ecosys.Exposure{{Field: ecosys.InfoRealName}, {Field: ecosys.InfoBankcard, Mask: ecosys.MaskSpec{Masked: true, VisibleSuffix: 4}}},
				},
			},
		},
		{
			Name: "b", Domain: ecosys.DomainNews,
			Presences: []ecosys.Presence{
				{Platform: ecosys.PlatformWeb, Exposes: []ecosys.Exposure{{Field: ecosys.InfoRealName}, {Field: ecosys.InfoOrderHistory}}},
			},
		},
	})
}

func TestMeasure(t *testing.T) {
	st := Measure(testCatalog(), ecosys.PlatformWeb)
	if st.Accounts != 2 {
		t.Fatalf("Accounts = %d", st.Accounts)
	}
	if st.FieldCounts[ecosys.InfoRealName] != 2 || st.FieldCounts[ecosys.InfoCitizenID] != 1 {
		t.Errorf("FieldCounts = %v", st.FieldCounts)
	}
	if st.Pct(ecosys.InfoRealName) != 100 || st.Pct(ecosys.InfoCitizenID) != 50 {
		t.Errorf("Pct wrong: %v / %v", st.Pct(ecosys.InfoRealName), st.Pct(ecosys.InfoCitizenID))
	}
	if st.CategoryCounts[ecosys.CategoryIdentity] != 2 {
		t.Errorf("identity category count = %d want 2", st.CategoryCounts[ecosys.CategoryIdentity])
	}
	if st.CategoryCounts[ecosys.CategoryRelationship] != 1 {
		t.Errorf("relationship category count = %d want 1", st.CategoryCounts[ecosys.CategoryRelationship])
	}
	empty := Measure(ecosys.MustCatalog(nil), ecosys.PlatformWeb)
	if empty.Pct(ecosys.InfoRealName) != 0 {
		t.Error("empty catalog Pct should be 0")
	}
}

// TestClassify pins the category grouping the exposure statistics
// count by (CategoryCounts groups fields by InfoField.Category).
func TestClassify(t *testing.T) {
	got := map[ecosys.InfoCategory]int{}
	for _, f := range []ecosys.InfoField{
		ecosys.InfoRealName, ecosys.InfoCitizenID, ecosys.InfoCellphone,
		ecosys.InfoBankcard, ecosys.InfoChatHistory,
	} {
		got[f.Category()]++
	}
	if got[ecosys.CategoryIdentity] != 2 {
		t.Errorf("identity fields = %d", got[ecosys.CategoryIdentity])
	}
	if got[ecosys.CategoryAccount] != 1 || got[ecosys.CategoryProperty] != 1 || got[ecosys.CategoryHistorical] != 1 {
		t.Errorf("classification = %v", got)
	}
}

func TestHarvestAppliesMasks(t *testing.T) {
	persona := identity.NewGenerator(42).Persona(7)
	cat := testCatalog()
	svc, _ := cat.ByName("a")
	pr, _ := svc.Presence(ecosys.PlatformWeb)

	got := Harvest(pr, persona)
	if got[ecosys.InfoRealName] != persona.RealName {
		t.Errorf("real name = %q want %q", got[ecosys.InfoRealName], persona.RealName)
	}
	cid := got[ecosys.InfoCitizenID]
	if !strings.HasPrefix(cid, persona.CitizenID[:6]) {
		t.Errorf("masked citizen ID %q does not keep prefix", cid)
	}
	if !strings.Contains(cid, "*") {
		t.Errorf("citizen ID %q not masked", cid)
	}
	if !strings.Contains(got[ecosys.InfoAcquaintance], persona.Acquaintances[0]) {
		t.Errorf("acquaintances = %q", got[ecosys.InfoAcquaintance])
	}
	// Unexposed fields are absent.
	if _, ok := got[ecosys.InfoBankcard]; ok {
		t.Error("web presence leaked bankcard")
	}
}

func TestHarvestAllFieldsHaveValues(t *testing.T) {
	persona := identity.NewGenerator(1).Persona(0)
	var exposes []ecosys.Exposure
	for _, f := range ecosys.AllInfoFields() {
		exposes = append(exposes, ecosys.Exposure{Field: f})
	}
	pr := &ecosys.Presence{Platform: ecosys.PlatformWeb, Exposes: exposes}
	got := Harvest(pr, persona)
	for _, f := range ecosys.AllInfoFields() {
		if got[f] == "" {
			t.Errorf("field %v harvested empty", f)
		}
	}
}

func BenchmarkHarvest(b *testing.B) {
	persona := identity.NewGenerator(1).Persona(0)
	cat := testCatalog()
	svc, _ := cat.ByName("a")
	pr, _ := svc.Presence(ecosys.PlatformWeb)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Harvest(pr, persona)
	}
}
