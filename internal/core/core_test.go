package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/actfort/actfort/internal/ecosys"
)

func testCatalog(t *testing.T) *ecosys.Catalog {
	t.Helper()
	sc, pn := ecosys.FactorSMSCode, ecosys.FactorCellphone
	specs := []*ecosys.ServiceSpec{
		{
			Name: "gmail", Domain: ecosys.DomainEmail,
			Presences: []ecosys.Presence{{
				Platform: ecosys.PlatformWeb,
				Paths: []ecosys.AuthPath{
					{ID: "reset-1", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{pn, sc}},
				},
				Exposes: []ecosys.Exposure{{Field: ecosys.InfoEmailAddress}},
			}},
		},
		{
			Name: "ctrip", Domain: ecosys.DomainTravel,
			Presences: []ecosys.Presence{{
				Platform: ecosys.PlatformWeb,
				Paths: []ecosys.AuthPath{
					{ID: "signin-1", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{pn, sc}},
				},
				Exposes: []ecosys.Exposure{{Field: ecosys.InfoCitizenID}, {Field: ecosys.InfoRealName}},
			}},
		},
		{
			Name: "paypal", Domain: ecosys.DomainFintech,
			Presences: []ecosys.Presence{{
				Platform: ecosys.PlatformWeb,
				Paths: []ecosys.AuthPath{
					{ID: "reset-1", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{sc, ecosys.FactorEmailCode}},
				},
				EmailProvider: "gmail",
			}},
		},
		{
			Name: "alipay", Domain: ecosys.DomainFintech,
			Presences: []ecosys.Presence{{
				Platform: ecosys.PlatformMobile,
				Paths: []ecosys.AuthPath{
					{ID: "reset-1", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{sc, ecosys.FactorCitizenID}},
				},
				Exposes: []ecosys.Exposure{{Field: ecosys.InfoBankcard, Mask: ecosys.MaskSpec{Masked: true, VisibleSuffix: 4}}},
			}},
		},
		{
			Name: "fortress", Domain: ecosys.DomainFintech,
			Presences: []ecosys.Presence{{
				Platform: ecosys.PlatformWeb,
				Paths: []ecosys.AuthPath{
					{ID: "signin-1", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorU2F}},
				},
			}},
		},
	}
	return ecosys.MustCatalog(specs)
}

func newEngine(t *testing.T) *ActFort {
	t.Helper()
	a, err := New(testCatalog(t), ecosys.BaselineAttacker())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewRejectsBadCatalog(t *testing.T) {
	bad := ecosys.MustCatalog([]*ecosys.ServiceSpec{{
		Name: "x", Domain: ecosys.DomainNews,
		Presences: []ecosys.Presence{{Platform: ecosys.PlatformWeb}}, // no paths
	}})
	if _, err := New(bad, ecosys.BaselineAttacker()); !errors.Is(err, ErrInvalidCatalog) {
		t.Fatalf("err = %v want ErrInvalidCatalog", err)
	}
	if _, err := New(nil, ecosys.BaselineAttacker()); err == nil {
		t.Fatal("nil catalog accepted")
	}
}

func TestGraphCaching(t *testing.T) {
	a := newEngine(t)
	g1, err := a.Graph(ecosys.PlatformWeb)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := a.Graph(ecosys.PlatformWeb)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("platform graph not cached")
	}
	gAll, err := a.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if gAll == g1 {
		t.Error("combined graph must differ from web-only graph")
	}
	if gAll.Len() != 5 || g1.Len() != 4 {
		t.Errorf("graph sizes: all=%d web=%d", gAll.Len(), g1.Len())
	}
}

func TestAttackPlanAcrossPlatforms(t *testing.T) {
	a := newEngine(t)
	// alipay/mobile needs citizen ID, exposed by ctrip/web: the plan
	// must cross platforms.
	plan, err := a.AttackPlan(ecosys.AccountID{Service: "alipay", Platform: ecosys.PlatformMobile}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.String() != "ctrip/web -> alipay/mobile" {
		t.Errorf("plan = %s", plan)
	}
	plans, err := a.AttackPlans(ecosys.AccountID{Service: "paypal", Platform: ecosys.PlatformWeb}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 || plans[0].String() != "gmail/web -> paypal/web" {
		t.Errorf("plans = %v", plans)
	}
}

func TestVictims(t *testing.T) {
	a := newEngine(t)
	res, err := a.Victims(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Everything except the U2F fortress falls.
	if res.VictimCount() != 4 {
		t.Errorf("victims = %d want 4", res.VictimCount())
	}
	if len(res.Survivors) != 1 || res.Survivors[0].Service != "fortress" {
		t.Errorf("survivors = %v", res.Survivors)
	}
}

// TestConcurrentQueries runs AttackPlan, AttackPlans, Victims(nil) and
// Measure at once on one fresh engine, two goroutines each, so the
// first builds and solves of its graphs race, and holds every answer
// equal to the one a sequential engine gives.
func TestConcurrentQueries(t *testing.T) {
	target := ecosys.AccountID{Service: "alipay", Platform: ecosys.PlatformMobile}
	queries := []func(*ActFort) (any, error){
		func(a *ActFort) (any, error) { return a.AttackPlan(target, 0) },
		func(a *ActFort) (any, error) { return a.AttackPlans(target, 0, 3) },
		func(a *ActFort) (any, error) { return a.Victims(nil) },
		func(a *ActFort) (any, error) { return a.Measure() },
	}
	seq := newEngine(t)
	want := make([]any, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = q(seq); err != nil {
			t.Fatal(err)
		}
	}
	a := newEngine(t)
	var wg sync.WaitGroup
	for range 2 {
		for i, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := q(a)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
				} else if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("query %d: concurrent answer %+v, sequential %+v", i, got, want[i])
				}
			}()
		}
	}
	wg.Wait()
}

func TestMeasure(t *testing.T) {
	a := newEngine(t)
	m, err := a.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if m.Services != 5 {
		t.Errorf("Services = %d", m.Services)
	}
	if m.Web.Accounts != 4 || m.Mobile.Accounts != 1 {
		t.Errorf("platform accounts: web=%d mobile=%d", m.Web.Accounts, m.Mobile.Accounts)
	}
	if m.WebExposure.FieldCounts[ecosys.InfoCitizenID] != 1 {
		t.Errorf("web citizen-ID exposure = %d", m.WebExposure.FieldCounts[ecosys.InfoCitizenID])
	}
	if m.WebLayers.Direct != 2 { // gmail + ctrip
		t.Errorf("web direct = %d want 2", m.WebLayers.Direct)
	}
	if m.WebLayers.Uncompromisable != 1 { // fortress
		t.Errorf("web uncompromisable = %d want 1", m.WebLayers.Uncompromisable)
	}
	// Mobile alone: alipay needs citizen ID with no mobile source.
	if m.MobileLayers.Uncompromisable != 1 {
		t.Errorf("mobile uncompromisable = %d want 1", m.MobileLayers.Uncompromisable)
	}
	// Domain breakdown covers all 4 domains present.
	if len(m.Domains) != 3 {
		t.Errorf("domains = %+v", m.Domains)
	}
	for _, d := range m.Domains {
		if d.Domain == ecosys.DomainFintech {
			if d.Accounts != 3 || d.Fringe != 0 {
				t.Errorf("fintech stats = %+v", d)
			}
			if d.Compromisable != 2 { // paypal + alipay fall, fortress survives
				t.Errorf("fintech compromisable = %d want 2", d.Compromisable)
			}
		}
	}
	if m.Web.Paths+m.Mobile.Paths != 5 {
		t.Errorf("paths = %d", m.Web.Paths+m.Mobile.Paths)
	}
}

// TestProfileCopied pins that New keeps its own copy of the attacker
// profile: the caller mutating theirs afterwards changes nothing.
func TestProfileCopied(t *testing.T) {
	ap := ecosys.BaselineAttacker()
	a, err := New(testCatalog(t), ap)
	if err != nil {
		t.Fatal(err)
	}
	ap.Capabilities[ecosys.FactorU2F] = true
	if a.ap.Capabilities[ecosys.FactorU2F] {
		t.Error("New shares the caller's attacker profile")
	}
}
