package actfort_test

import (
	"context"
	"strings"
	"testing"

	"github.com/actfort/actfort"
)

// The public API quick-start path, exactly as README documents it.
func TestPublicAPIQuickstart(t *testing.T) {
	cat, err := actfort.DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 201 {
		t.Fatalf("services = %d", cat.Len())
	}
	engine, err := actfort.New(cat, actfort.BaselineAttacker())
	if err != nil {
		t.Fatal(err)
	}
	m, err := engine.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if m.Web.Paths+m.Mobile.Paths != 405 {
		t.Errorf("total paths = %d", m.Web.Paths+m.Mobile.Paths)
	}

	plan, err := engine.AttackPlan(actfort.Account("paypal", actfort.Web), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "paypal/web") {
		t.Errorf("plan = %s", plan)
	}

	g, err := engine.Graph(actfort.Web)
	if err != nil {
		t.Fatal(err)
	}
	st := actfort.PathLayers(g)
	if st.Direct != 139 {
		t.Errorf("direct = %d", st.Direct)
	}
}

func TestSyntheticCatalogExported(t *testing.T) {
	cat, err := actfort.SyntheticCatalog(25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() < 25 {
		t.Errorf("synthetic = %d services", cat.Len())
	}
	if _, err := actfort.New(cat, actfort.BaselineAttacker()); err != nil {
		t.Fatal(err)
	}
}

func TestVictimsExported(t *testing.T) {
	cat, err := actfort.DefaultCatalog()
	if err != nil {
		t.Fatal(err)
	}
	engine, err := actfort.New(cat, actfort.BaselineAttacker())
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Victims(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.VictimCount() == 0 {
		t.Error("no victims in the baseline ecosystem")
	}
	if actfort.Version == "" {
		t.Error("version empty")
	}
}

func TestCampaignFacade(t *testing.T) {
	pop, err := actfort.NewPopulation(actfort.PopulationConfig{Seed: 9, Size: 400, ShardSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := actfort.RunCampaign(context.Background(), actfort.CampaignConfig{
		Population: pop,
		KeyBits:    10,
	}, actfort.CampaignScenario{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Subscribers != 400 || sum.VictimsCompromised == 0 {
		t.Fatalf("campaign summary = %+v", sum)
	}
}
