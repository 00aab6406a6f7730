package tdg

import (
	"strings"
	"testing"

	"github.com/actfort/actfort/internal/ecosys"
)

// fixtureNodes builds a miniature paper-shaped ecosystem:
//
//	gmail/web    — reset with PN+SC (fringe); hosts everyone's email
//	ctrip/web    — sign-in with PN+SC (fringe); exposes citizen ID
//	paypal/web   — reset with SC+EMC (needs gmail)
//	alipay/mob   — reset with SC+CID (needs ctrip)
//	bank/web     — reset with Name+CID+BN (needs a couple)
//	jd/web       — exposes real name (half parent for bank)
//	shop/web     — exposes bankcard (half parent for bank); fringe
//	fortress/web — sign-in with U2F only (unattackable)
//	expedia/web  — sign-in via linked gmail account

// strongParents returns the full-capacity parents of a node: the
// sources of its strong edges, unique, in discovery order.
func strongParents(g *Graph, id ecosys.AccountID) []ecosys.AccountID {
	var out []ecosys.AccountID
	seen := map[ecosys.AccountID]bool{}
	for _, e := range g.StrongEdges() {
		if e.To == id && !seen[e.From] {
			seen[e.From] = true
			out = append(out, e.From)
		}
	}
	return out
}

func fixtureNodes() []Node {
	id := func(s string, p ecosys.Platform) ecosys.AccountID {
		return ecosys.AccountID{Service: s, Platform: p}
	}
	web := ecosys.PlatformWeb
	mob := ecosys.PlatformMobile
	return []Node{
		{
			ID:     id("gmail", web),
			Domain: ecosys.DomainEmail,
			Paths: []ecosys.AuthPath{
				{ID: "signin-1", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorPassword}},
				{ID: "reset-1", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorCellphone, ecosys.FactorSMSCode}},
			},
			Exposes: ecosys.NewInfoSet(ecosys.InfoEmailAddress, ecosys.InfoAcquaintance, ecosys.InfoChatHistory),
		},
		{
			ID:     id("ctrip", web),
			Domain: ecosys.DomainTravel,
			Paths: []ecosys.AuthPath{
				{ID: "signin-1", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorCellphone, ecosys.FactorSMSCode}},
			},
			Exposes: ecosys.NewInfoSet(ecosys.InfoCitizenID, ecosys.InfoRealName, ecosys.InfoCellphone),
		},
		{
			ID:     id("paypal", web),
			Domain: ecosys.DomainFintech,
			Paths: []ecosys.AuthPath{
				{ID: "reset-1", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorSMSCode, ecosys.FactorEmailCode}},
			},
			Exposes:       ecosys.NewInfoSet(ecosys.InfoRealName, ecosys.InfoEmailAddress),
			EmailProvider: "gmail",
		},
		{
			ID:     id("alipay", mob),
			Domain: ecosys.DomainFintech,
			Paths: []ecosys.AuthPath{
				{ID: "reset-1", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorSMSCode, ecosys.FactorCitizenID}},
				{ID: "pay-1", Purpose: ecosys.PurposePaymentReset, Factors: []ecosys.FactorKind{ecosys.FactorSMSCode, ecosys.FactorCitizenID}},
			},
			Exposes: ecosys.NewInfoSet(ecosys.InfoRealName, ecosys.InfoCellphone, ecosys.InfoBankcard),
		},
		{
			ID:     id("bank", web),
			Domain: ecosys.DomainFintech,
			Paths: []ecosys.AuthPath{
				{ID: "reset-1", Purpose: ecosys.PurposeReset, Factors: []ecosys.FactorKind{ecosys.FactorRealName, ecosys.FactorCitizenID, ecosys.FactorBankcard}},
			},
			Exposes: ecosys.NewInfoSet(ecosys.InfoBankcard),
		},
		{
			ID:      id("jd", web),
			Domain:  ecosys.DomainECommerce,
			Paths:   []ecosys.AuthPath{{ID: "signin-1", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorSMSCode}}},
			Exposes: ecosys.NewInfoSet(ecosys.InfoRealName, ecosys.InfoDeviceType, ecosys.InfoAcquaintance),
		},
		{
			ID:      id("shop", web),
			Domain:  ecosys.DomainECommerce,
			Paths:   []ecosys.AuthPath{{ID: "signin-1", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorCellphone, ecosys.FactorSMSCode}}},
			Exposes: ecosys.NewInfoSet(ecosys.InfoBankcard, ecosys.InfoAddress),
		},
		{
			ID:      id("fortress", web),
			Domain:  ecosys.DomainFintech,
			Paths:   []ecosys.AuthPath{{ID: "signin-1", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorU2F}}},
			Exposes: ecosys.NewInfoSet(ecosys.InfoRealName),
		},
		{
			ID:      id("expedia", web),
			Domain:  ecosys.DomainTravel,
			Paths:   []ecosys.AuthPath{{ID: "signin-1", Purpose: ecosys.PurposeSignIn, Factors: []ecosys.FactorKind{ecosys.FactorLinkedAccount}}},
			Exposes: ecosys.NewInfoSet(ecosys.InfoOrderHistory),
			BoundTo: []string{"gmail"},
		},
	}
}

func buildFixture(t *testing.T, opts ...Option) *Graph {
	t.Helper()
	g, err := Build(fixtureNodes(), ecosys.BaselineAttacker(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func aid(s string, p ecosys.Platform) ecosys.AccountID {
	return ecosys.AccountID{Service: s, Platform: p}
}

func TestFringeClassification(t *testing.T) {
	g := buildFixture(t)
	wantFringe := map[string]bool{
		"gmail/web": true, "ctrip/web": true, "jd/web": true, "shop/web": true,
		"paypal/web": false, "alipay/mobile": false, "bank/web": false,
		"fortress/web": false, "expedia/web": false,
	}
	for _, id := range g.Nodes() {
		if got := g.IsFringe(id); got != wantFringe[id.String()] {
			t.Errorf("IsFringe(%s) = %v want %v", id, got, wantFringe[id.String()])
		}
	}
	if got := len(g.FringeNodes()) + len(g.InternalNodes()); got != g.Len() {
		t.Errorf("fringe+internal = %d want %d", got, g.Len())
	}
}

func TestStrongEdges(t *testing.T) {
	g := buildFixture(t)

	// ctrip exposes citizen ID -> full-capacity parent of alipay.
	parents := strongParents(g, aid("alipay", ecosys.PlatformMobile))
	if len(parents) != 1 || parents[0] != aid("ctrip", ecosys.PlatformWeb) {
		t.Errorf("alipay strong parents = %v", parents)
	}

	// gmail hosts paypal's mailbox -> full-capacity parent of paypal.
	parents = strongParents(g, aid("paypal", ecosys.PlatformWeb))
	if len(parents) != 1 || parents[0] != aid("gmail", ecosys.PlatformWeb) {
		t.Errorf("paypal strong parents = %v", parents)
	}

	// expedia is bound to gmail -> gmail is its full-capacity parent.
	parents = strongParents(g, aid("expedia", ecosys.PlatformWeb))
	if len(parents) != 1 || parents[0] != aid("gmail", ecosys.PlatformWeb) {
		t.Errorf("expedia strong parents = %v", parents)
	}

	// fortress (U2F) must have no parents at all.
	if got := strongParents(g, aid("fortress", ecosys.PlatformWeb)); len(got) != 0 {
		t.Errorf("fortress strong parents = %v", got)
	}
	for _, e := range g.WeakEdges() {
		if e.To == aid("fortress", ecosys.PlatformWeb) {
			t.Errorf("weak edge into U2F-only node: %+v", e)
		}
	}
}

func TestCoupleNodes(t *testing.T) {
	g := buildFixture(t)
	bank := aid("bank", ecosys.PlatformWeb)

	// bank needs Name+CID+BN. ctrip gives Name+CID, shop/alipay give
	// BN: couples {ctrip, shop} and {ctrip, alipay}.
	couples := g.Couples(bank)
	if len(couples) == 0 {
		t.Fatal("no couples found for bank")
	}
	foundCtripShop := false
	for _, c := range couples {
		if c.Target != bank {
			t.Errorf("couple target = %v", c.Target)
		}
		members := make(map[string]bool, len(c.Members))
		for _, m := range c.Members {
			members[m.Service] = true
		}
		if members["ctrip"] && members["shop"] {
			foundCtripShop = true
		}
		// Minimality: a couple must never contain a node contributing
		// nothing (jd alone gives Name which ctrip already covers, so
		// {ctrip, jd, X} would be non-minimal).
		if members["ctrip"] && members["jd"] {
			t.Errorf("non-minimal couple: %v", c.Members)
		}
	}
	if !foundCtripShop {
		t.Errorf("expected couple {ctrip, shop}; got %+v", couples)
	}

	// No strong parent for bank: nobody alone covers all three.
	if got := strongParents(g, bank); len(got) != 0 {
		t.Errorf("bank strong parents = %v", got)
	}

	// Weak edges exist for couple members.
	weakInto := map[string]bool{}
	for _, e := range g.WeakEdges() {
		if e.To == bank {
			weakInto[e.From.Service] = true
		}
	}
	if !weakInto["ctrip"] || !weakInto["shop"] {
		t.Errorf("weak edges into bank = %v", weakInto)
	}
}

func TestPaymentResetExcludedByDefault(t *testing.T) {
	g := buildFixture(t)
	// alipay's pay-1 path duplicates reset-1's factors, so edge sets
	// must not double-count: exactly one strong edge ctrip->alipay.
	count := 0
	for _, e := range g.StrongEdges() {
		if e.To == aid("alipay", ecosys.PlatformMobile) {
			count++
		}
	}
	if count != 1 {
		t.Errorf("strong edges into alipay = %d want 1", count)
	}
}

func TestRicherAttackerProfileShrinksRequirements(t *testing.T) {
	ap := ecosys.BaselineAttacker()
	ap.KnownInfo.Add(ecosys.InfoCitizenID) // targeted attacker with leaked DB
	g, err := Build(fixtureNodes(), ap)
	if err != nil {
		t.Fatal(err)
	}
	// With CID known a priori, alipay becomes fringe.
	if !g.IsFringe(aid("alipay", ecosys.PlatformMobile)) {
		t.Error("alipay should be fringe for an attacker holding citizen ID")
	}
}

func TestBuildValidation(t *testing.T) {
	nodes := fixtureNodes()
	dup := append(nodes, nodes[0])
	if _, err := Build(dup, ecosys.BaselineAttacker()); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := Build(nodes, ecosys.BaselineAttacker(), WithMaxCoupleSize(1)); err == nil {
		t.Error("couple size 1 accepted")
	}
}

func TestTripleCouples(t *testing.T) {
	// A target needing three factors spread over three providers.
	web := ecosys.PlatformWeb
	nodes := []Node{
		{ID: aid("t", web), Paths: []ecosys.AuthPath{{ID: "r", Purpose: ecosys.PurposeReset,
			Factors: []ecosys.FactorKind{ecosys.FactorRealName, ecosys.FactorCitizenID, ecosys.FactorBankcard}}}},
		{ID: aid("a", web), Exposes: ecosys.NewInfoSet(ecosys.InfoRealName)},
		{ID: aid("b", web), Exposes: ecosys.NewInfoSet(ecosys.InfoCitizenID)},
		{ID: aid("c", web), Exposes: ecosys.NewInfoSet(ecosys.InfoBankcard)},
	}
	g2, err := Build(nodes, ecosys.BaselineAttacker(), WithMaxCoupleSize(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := g2.Couples(aid("t", web)); len(got) != 0 {
		t.Errorf("pair-only enumeration found %d couples, want 0", len(got))
	}
	g3, err := Build(nodes, ecosys.BaselineAttacker(), WithMaxCoupleSize(3))
	if err != nil {
		t.Fatal(err)
	}
	got := g3.Couples(aid("t", web))
	if len(got) != 1 || len(got[0].Members) != 3 {
		t.Fatalf("triple enumeration = %+v", got)
	}
}

func TestCoupleCapRespected(t *testing.T) {
	web := ecosys.PlatformWeb
	nodes := []Node{{
		ID: aid("t", web),
		Paths: []ecosys.AuthPath{{ID: "r", Purpose: ecosys.PurposeReset,
			Factors: []ecosys.FactorKind{ecosys.FactorRealName, ecosys.FactorBankcard}}},
	}}
	// 9 name providers x 9 card providers = 81 potential pairs.
	for i := 0; i < 9; i++ {
		nodes = append(nodes,
			Node{ID: aid("n"+string(rune('a'+i)), web), Exposes: ecosys.NewInfoSet(ecosys.InfoRealName)},
			Node{ID: aid("c"+string(rune('a'+i)), web), Exposes: ecosys.NewInfoSet(ecosys.InfoBankcard)},
		)
	}
	g, err := Build(nodes, ecosys.BaselineAttacker())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Couples(aid("t", web))); got != maxCouplesPerPath {
		t.Errorf("couples = %d, want the cap %d of 81 pairs", got, maxCouplesPerPath)
	}
}

func TestNodesFromCatalog(t *testing.T) {
	specs := []*ecosys.ServiceSpec{
		{Name: "a", Domain: ecosys.DomainEmail, Presences: []ecosys.Presence{
			{Platform: ecosys.PlatformWeb, Exposes: []ecosys.Exposure{{Field: ecosys.InfoRealName}}},
			{Platform: ecosys.PlatformMobile},
		}},
		{Name: "b", Domain: ecosys.DomainSocial, Presences: []ecosys.Presence{
			{Platform: ecosys.PlatformMobile, EmailProvider: "a", BoundTo: []string{"a"}},
		}},
	}
	cat := ecosys.MustCatalog(specs)
	all := NodesFromCatalog(cat)
	if len(all) != 3 {
		t.Fatalf("all nodes = %d want 3", len(all))
	}
	webOnly := NodesFromCatalog(cat, ecosys.PlatformWeb)
	if len(webOnly) != 1 || webOnly[0].ID.Service != "a" {
		t.Fatalf("web nodes = %+v", webOnly)
	}
	mob := NodesFromCatalog(cat, ecosys.PlatformMobile)
	if len(mob) != 2 {
		t.Fatalf("mobile nodes = %d want 2", len(mob))
	}
	for _, n := range mob {
		if n.ID.Service == "b" {
			if n.EmailProvider != "a" || len(n.BoundTo) != 1 {
				t.Errorf("catalog fields not copied: %+v", n)
			}
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g := buildFixture(t)
	var sb strings.Builder
	if err := g.DOT(&sb); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	for _, want := range []string{
		"digraph tdg", `"gmail/web" [fillcolor=salmon]`,
		`"paypal/web" [fillcolor=lightblue]`,
		`"gmail/web" -> "paypal/web"`, "style=dashed",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestDescribeNode(t *testing.T) {
	g := buildFixture(t)
	desc, err := g.DescribeNode(aid("alipay", ecosys.PlatformMobile))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"credential factor file", "SC + CID", "personal information file", "bankcard-number"} {
		if !strings.Contains(desc, want) {
			t.Errorf("DescribeNode missing %q in:\n%s", want, desc)
		}
	}
	if _, err := g.DescribeNode(aid("nope", ecosys.PlatformWeb)); err == nil {
		t.Error("unknown node described")
	}
}

func TestProfileIsCopied(t *testing.T) {
	g := buildFixture(t)
	p := g.Profile()
	p.Capabilities[ecosys.FactorU2F] = true
	if g.Profile().Capabilities.Has(ecosys.FactorU2F) {
		t.Error("Profile() leaked internal state")
	}
}

func BenchmarkBuildFixture(b *testing.B) {
	nodes := fixtureNodes()
	ap := ecosys.BaselineAttacker()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(nodes, ap); err != nil {
			b.Fatal(err)
		}
	}
}
