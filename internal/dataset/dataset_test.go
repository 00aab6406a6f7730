package dataset

import (
	"math"
	"testing"

	"github.com/actfort/actfort/internal/authproc"
	"github.com/actfort/actfort/internal/collect"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/strategy"
	"github.com/actfort/actfort/internal/tdg"
)

func defaultCatalog(t *testing.T) *ecosys.Catalog {
	t.Helper()
	cat, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// NumPaths is the paper's 405 total authentication paths.
const NumPaths = 405

func TestCatalogFrameCounts(t *testing.T) {
	cat := defaultCatalog(t)
	if cat.Len() != NumServices {
		t.Errorf("services = %d want %d", cat.Len(), NumServices)
	}
	if got := cat.CountPlatform(ecosys.PlatformWeb); got != NumWeb {
		t.Errorf("web presences = %d want %d", got, NumWeb)
	}
	if got := cat.CountPlatform(ecosys.PlatformMobile); got != NumMobile {
		t.Errorf("mobile presences = %d want %d", got, NumMobile)
	}
	if got := authproc.Measure(cat, ecosys.PlatformWeb).Paths + authproc.Measure(cat, ecosys.PlatformMobile).Paths; got != NumPaths {
		t.Errorf("total paths = %d want %d", got, NumPaths)
	}
}

func TestCatalogIsValid(t *testing.T) {
	cat := defaultCatalog(t)
	if errs := authproc.ValidateCatalog(cat); len(errs) != 0 {
		for _, e := range errs[:min(len(errs), 10)] {
			t.Error(e)
		}
		t.Fatalf("%d validation errors", len(errs))
	}
}

func TestCatalogDeterministic(t *testing.T) {
	a := defaultCatalog(t)
	b := defaultCatalog(t)
	sa, sb := a.Services(), b.Services()
	if len(sa) != len(sb) {
		t.Fatal("different lengths")
	}
	for i := range sa {
		if sa[i].Name != sb[i].Name || len(sa[i].Presences) != len(sb[i].Presences) {
			t.Fatalf("service %d differs: %s vs %s", i, sa[i].Name, sb[i].Name)
		}
		for j := range sa[i].Presences {
			pa, pb := sa[i].Presences[j], sb[i].Presences[j]
			if len(pa.Paths) != len(pb.Paths) || len(pa.Exposes) != len(pb.Exposes) {
				t.Fatalf("%s presence %d differs", sa[i].Name, j)
			}
		}
	}
}

// Table I: the exact exposure counts recovered from the paper's
// percentages.
func TestTable1ExposureCountsExact(t *testing.T) {
	cat := defaultCatalog(t)
	web := collect.Measure(cat, ecosys.PlatformWeb)
	mob := collect.Measure(cat, ecosys.PlatformMobile)

	wantWeb := map[ecosys.InfoField]int{
		ecosys.InfoRealName: 92, ecosys.InfoCitizenID: 22, ecosys.InfoCellphone: 101,
		ecosys.InfoEmailAddress: 111, ecosys.InfoAddress: 96, ecosys.InfoUserID: 86,
		ecosys.InfoBindingAccount: 84, ecosys.InfoAcquaintance: 60, ecosys.InfoDeviceType: 28,
	}
	wantMob := map[ecosys.InfoField]int{
		ecosys.InfoRealName: 42, ecosys.InfoCitizenID: 23, ecosys.InfoCellphone: 49,
		ecosys.InfoEmailAddress: 36, ecosys.InfoAddress: 36, ecosys.InfoUserID: 34,
		ecosys.InfoBindingAccount: 32, ecosys.InfoAcquaintance: 37, ecosys.InfoDeviceType: 20,
	}
	for f, want := range wantWeb {
		if got := web.FieldCounts[f]; got != want {
			t.Errorf("web %v = %d want %d", f, got, want)
		}
	}
	for f, want := range wantMob {
		if got := mob.FieldCounts[f]; got != want {
			t.Errorf("mobile %v = %d want %d", f, got, want)
		}
	}

	// Spot-check the printed percentages.
	checks := []struct {
		got, want float64
	}{
		{web.Pct(ecosys.InfoCellphone), 54.01},
		{web.Pct(ecosys.InfoCitizenID), 11.76},
		{mob.Pct(ecosys.InfoCellphone), 87.50},
		{mob.Pct(ecosys.InfoRealName), 75.00},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 0.01 {
			t.Errorf("percentage %.2f want %.2f", c.got, c.want)
		}
	}
}

func TestPathCountsPerPlatform(t *testing.T) {
	cat := defaultCatalog(t)
	web := authproc.Measure(cat, ecosys.PlatformWeb)
	mob := authproc.Measure(cat, ecosys.PlatformMobile)
	if web.Paths != 208 {
		t.Errorf("web paths = %d want 208", web.Paths)
	}
	if mob.Paths != 197 {
		t.Errorf("mobile paths = %d want 197", mob.Paths)
	}
	// SMS involvement: the paper's "over 80%" (measured on accounts).
	if pct := web.PctAccounts(web.UsesSMSAnywhere); pct < 80 {
		t.Errorf("web SMS usage = %.1f%%, want >= 80%%", pct)
	}
	if pct := mob.PctAccounts(mob.UsesSMSAnywhere); pct < 80 {
		t.Errorf("mobile SMS usage = %.1f%%, want >= 80%%", pct)
	}
	// Sign-in SMS-only must sit clearly below reset SMS-only.
	if web.SMSOnlySignIn >= web.SMSOnlyReset {
		t.Errorf("web sign-in SMS-only (%d) not below reset (%d)", web.SMSOnlySignIn, web.SMSOnlyReset)
	}
}

// Dependency shape (§IV.B.1): exact direct counts by construction,
// band checks for the deeper layers.
func TestDependencyLayers(t *testing.T) {
	cat := defaultCatalog(t)

	webGraph, err := tdg.Build(tdg.NodesFromCatalog(cat, ecosys.PlatformWeb), ecosys.BaselineAttacker())
	if err != nil {
		t.Fatal(err)
	}
	webStats := strategy.Solve(webGraph).DepthStats()
	if webStats.Direct != 139 { // 74.33% vs paper 74.13%
		t.Errorf("web direct = %d want 139", webStats.Direct)
	}
	if pct := webStats.Pct(webStats.OneMiddle); pct < 7 || pct < 9.83-4 || pct > 9.83+4 {
		t.Errorf("web one-middle = %.2f%%, want 9.83%%±4", pct)
	}
	if webStats.TwoLayerFull == 0 {
		t.Error("web has no two-layer full-capacity accounts")
	}
	if webStats.TwoLayerCouple == 0 {
		t.Error("web has no two-layer couple accounts")
	}
	if pct := webStats.Pct(webStats.Uncompromisable); pct < 2 || pct > 8 {
		t.Errorf("web uncompromisable = %.2f%%, want 4.44%%±“a few”", pct)
	}

	mobGraph, err := tdg.Build(tdg.NodesFromCatalog(cat, ecosys.PlatformMobile), ecosys.BaselineAttacker())
	if err != nil {
		t.Fatal(err)
	}
	mobStats := strategy.Solve(mobGraph).DepthStats()
	if mobStats.Direct != 42 { // 75.00% vs paper 75.56%
		t.Errorf("mobile direct = %d want 42", mobStats.Direct)
	}
	if mobStats.Uncompromisable != 1 { // 1.79% vs paper 2.22%
		t.Errorf("mobile uncompromisable = %d want 1", mobStats.Uncompromisable)
	}
	if mobStats.OneMiddle == 0 || mobStats.TwoLayerFull == 0 || mobStats.TwoLayerCouple == 0 {
		t.Errorf("mobile depth tail missing: %+v", mobStats)
	}
}

// The headline: essentially the whole ecosystem falls to phone + SMS.
func TestClosureCoversEcosystem(t *testing.T) {
	cat := defaultCatalog(t)
	g, err := tdg.Build(tdg.NodesFromCatalog(cat), ecosys.BaselineAttacker())
	if err != nil {
		t.Fatal(err)
	}
	res, err := strategy.ForwardClosure(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := g.Len()
	fallen := res.VictimCount()
	if pct := 100 * float64(fallen) / float64(total); pct < 90 {
		t.Errorf("combined closure compromises %.1f%%, expected >90%%", pct)
	}
	// Survivors must all be unphishable-only accounts.
	for _, id := range res.Survivors {
		node, _ := g.Node(id)
		for _, p := range node.Paths {
			if p.Purpose != ecosys.PurposeSignIn && p.Purpose != ecosys.PurposeReset {
				continue
			}
			hasUnphish := false
			hasCSorPW := false
			for _, f := range p.Factors {
				if f.Unphishable() {
					hasUnphish = true
				}
				if f == ecosys.FactorCustomerService || f == ecosys.FactorPassword {
					hasCSorPW = true
				}
			}
			if !hasUnphish && !hasCSorPW {
				t.Errorf("survivor %s has a phishable path %s", id, p)
			}
		}
	}
}

func TestFlagshipNarrativeProperties(t *testing.T) {
	cat := defaultCatalog(t)

	// Email providers reset with SMS codes alone.
	for _, name := range []string{"gmail", "outlook", "netease-163", "aliyun-mail"} {
		svc, ok := cat.ByName(name)
		if !ok {
			t.Fatalf("flagship %s missing", name)
		}
		pr, _ := svc.Presence(ecosys.PlatformWeb)
		if !pr.HasSMSOnlyPath() {
			t.Errorf("%s/web should be SMS-resettable", name)
		}
	}

	// Ctrip exposes the citizen ID and logs in with SMS alone (the
	// Case III pivot).
	ctrip, _ := cat.ByName("ctrip")
	pr, _ := ctrip.Presence(ecosys.PlatformWeb)
	if _, ok := pr.Exposure(ecosys.InfoCitizenID); !ok {
		t.Error("ctrip/web must expose citizen ID")
	}
	if !pr.HasSMSOnlyPath() {
		t.Error("ctrip/web must be SMS-only loggable")
	}

	// Alipay mobile demands citizen ID + SMS and has a payment reset.
	alipay, _ := cat.ByName("alipay")
	am, _ := alipay.Presence(ecosys.PlatformMobile)
	foundCID, foundPay := false, false
	for _, p := range am.Paths {
		if p.Purpose == ecosys.PurposeReset && p.Requires(ecosys.FactorCitizenID) && p.Requires(ecosys.FactorSMSCode) {
			foundCID = true
		}
		if p.Purpose == ecosys.PurposePaymentReset {
			foundPay = true
		}
	}
	if !foundCID || !foundPay {
		t.Errorf("alipay/mobile paths incomplete: cid=%v pay=%v", foundCID, foundPay)
	}

	// Gome's masks are asymmetric and jointly cover all 18 digits.
	gome, _ := cat.ByName("gome")
	gw, _ := gome.Presence(ecosys.PlatformWeb)
	gm, _ := gome.Presence(ecosys.PlatformMobile)
	ew, _ := gw.Exposure(ecosys.InfoCitizenID)
	em, _ := gm.Exposure(ecosys.InfoCitizenID)
	if ew.Mask == em.Mask {
		t.Error("gome web/mobile masks should differ")
	}
	covered := ew.Mask.VisiblePrefix + ew.Mask.VisibleSuffix + em.Mask.VisiblePrefix + em.Mask.VisibleSuffix
	if covered < 18 {
		t.Errorf("gome masks jointly reveal %d < 18 positions", covered)
	}

	// PayPal's mailbox is on gmail (Case II chain).
	paypal, _ := cat.ByName("paypal")
	pw, _ := paypal.Presence(ecosys.PlatformWeb)
	if pw.EmailProvider != "gmail" {
		t.Errorf("paypal email provider = %q", pw.EmailProvider)
	}
}

func TestFig4Subset(t *testing.T) {
	cat := defaultCatalog(t)
	ids := Fig4Accounts()
	if len(ids) != 44 {
		t.Fatalf("Fig4Accounts = %d want 44", len(ids))
	}
	seen := make(map[ecosys.AccountID]bool)
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate %s", id)
		}
		seen[id] = true
		if _, ok := cat.PresenceOf(id); !ok {
			t.Errorf("account %s not in catalog", id)
		}
	}
	g, err := Fig4Graph(cat, ecosys.BaselineAttacker())
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 44 {
		t.Fatalf("Fig4 graph = %d nodes", g.Len())
	}
	fringe := len(g.FringeNodes())
	internal := len(g.InternalNodes())
	// Paper's Fig 4 shape: fringe (red) dominates.
	if fringe <= internal {
		t.Errorf("fringe=%d internal=%d; expected fringe majority", fringe, internal)
	}
	if len(g.StrongEdges()) == 0 {
		t.Error("Fig4 graph has no strong edges")
	}
}

func TestBankcardNeverOnFringeWeb(t *testing.T) {
	// The depth-3 construction requires bankcards only on non-fringe
	// accounts.
	cat := defaultCatalog(t)
	for _, svc := range cat.Services() {
		for i := range svc.Presences {
			pr := &svc.Presences[i]
			if _, ok := pr.Exposure(ecosys.InfoBankcard); !ok {
				continue
			}
			if pr.HasSMSOnlyPath() {
				t.Errorf("%s/%v exposes bankcard on a fringe account", svc.Name, pr.Platform)
			}
			// And bankcards are always masked (the paper: none expose
			// the whole number).
			e, _ := pr.Exposure(ecosys.InfoBankcard)
			if !e.Mask.Masked {
				t.Errorf("%s/%v exposes an unmasked bankcard", svc.Name, pr.Platform)
			}
		}
	}
}

// TestFlagshipsListed pins the 39 hand-written flagship services, each
// planned once.
func TestFlagshipsListed(t *testing.T) {
	plans := flagshipPlans()
	if len(plans) != 39 {
		t.Errorf("flagships = %d want 39", len(plans))
	}
	seen := map[string]bool{}
	for _, p := range plans {
		if seen[p.name] {
			t.Fatalf("flagship %s planned twice", p.name)
		}
		seen[p.name] = true
	}
}

func BenchmarkDefaultCatalog(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Default(); err != nil {
			b.Fatal(err)
		}
	}
}
