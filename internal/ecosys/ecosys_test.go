package ecosys

import (
	"testing"
	"testing/quick"
)

func TestFactorKindStrings(t *testing.T) {
	for _, k := range AllFactorKinds() {
		if !k.Valid() {
			t.Errorf("AllFactorKinds returned invalid kind %d", k)
		}
		if k.String() == "factor(?)" {
			t.Errorf("factor %d has no name", k)
		}
		if k.Short() == "?" {
			t.Errorf("factor %d has no short code", k)
		}
	}
	if FactorKind(0).Valid() {
		t.Error("zero FactorKind must be invalid")
	}
	if FactorKind(999).String() != "factor(?)" {
		t.Error("unknown factor should stringify to factor(?)")
	}
}

func TestInfoFieldStringsAndCategories(t *testing.T) {
	for _, f := range AllInfoFields() {
		if !f.Valid() {
			t.Errorf("AllInfoFields returned invalid field %d", f)
		}
		if f.String() == "info(?)" {
			t.Errorf("field %d has no name", f)
		}
		if f.Category() == 0 {
			t.Errorf("field %v has no category", f)
		}
	}
	if InfoField(0).Valid() {
		t.Error("zero InfoField must be invalid")
	}
}

func TestInfoFactorTransformation(t *testing.T) {
	cases := []struct {
		field InfoField
		want  FactorKind
	}{
		{InfoRealName, FactorRealName},
		{InfoCitizenID, FactorCitizenID},
		{InfoCellphone, FactorCellphone},
		{InfoEmailAddress, FactorEmailAddress},
		{InfoBankcard, FactorBankcard},
		{InfoPhotos, FactorCitizenID}, // cloud backups leak ID scans
	}
	for _, c := range cases {
		got, ok := c.field.Factor()
		if !ok || got != c.want {
			t.Errorf("%v.Factor() = %v,%v want %v,true", c.field, got, ok, c.want)
		}
	}
	if _, ok := InfoOrderHistory.Factor(); ok {
		t.Error("order history should not yield a credential factor")
	}
	if _, ok := InfoChatHistory.Factor(); ok {
		t.Error("chat history should not yield a credential factor")
	}
	if _, ok := InfoBindingAccount.Factor(); ok {
		t.Error("binding-account list is recon, not a credential factor")
	}
}

// Len returns the number of members.
func (s FactorSet) Len() int {
	n := 0
	for _, v := range s {
		if v {
			n++
		}
	}
	return n
}

// Contains reports whether every factor in other is in s.
func (s FactorSet) Contains(other FactorSet) bool {
	for k, v := range other {
		if v && !s[k] {
			return false
		}
	}
	return true
}

// CanSatisfy reports whether the profile alone satisfies path p.
func (a AttackerProfile) CanSatisfy(p AuthPath) bool {
	return a.Factors().Contains(NewFactorSet(p.Factors...))
}

func TestFactorSetOperations(t *testing.T) {
	s := NewFactorSet(FactorSMSCode, FactorCellphone)
	if !s.Has(FactorSMSCode) || s.Has(FactorPassword) {
		t.Fatal("membership wrong after NewFactorSet")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d want 2", s.Len())
	}
	clone := s.Clone()
	clone[FactorPassword] = true
	if s.Has(FactorPassword) {
		t.Error("Clone is not independent of the original")
	}
	u := s.Union(NewFactorSet(FactorEmailCode))
	if !u.Has(FactorEmailCode) || !u.Has(FactorSMSCode) {
		t.Error("Union missing members")
	}
	if s.Has(FactorEmailCode) {
		t.Error("Union mutated receiver")
	}
	if !u.Contains(s) {
		t.Error("superset must Contain subset")
	}
	if s.Contains(u) {
		t.Error("subset must not Contain superset")
	}
	order := u.Sorted()
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Errorf("Sorted out of order: %v", order)
		}
	}
}

func TestInfoSetFactors(t *testing.T) {
	s := NewInfoSet(InfoRealName, InfoOrderHistory, InfoCellphone)
	f := s.Factors()
	if !f.Has(FactorRealName) || !f.Has(FactorCellphone) {
		t.Errorf("Factors() missing transformations: %v", f.Sorted())
	}
	if f.Len() != 2 {
		t.Errorf("Factors() = %v, want exactly 2 factors", f.Sorted())
	}
}

func TestAuthPathClass(t *testing.T) {
	cases := []struct {
		path AuthPath
		want PathClass
	}{
		{AuthPath{Factors: []FactorKind{FactorCellphone, FactorSMSCode}}, ClassGeneral},
		{AuthPath{Factors: []FactorKind{FactorPassword}}, ClassGeneral},
		{AuthPath{Factors: []FactorKind{FactorSMSCode, FactorCitizenID}}, ClassInfo},
		{AuthPath{Factors: []FactorKind{FactorRealName, FactorBankcard}}, ClassInfo},
		{AuthPath{Factors: []FactorKind{FactorBiometric}}, ClassUnique},
		{AuthPath{Factors: []FactorKind{FactorCitizenID, FactorU2F}}, ClassUnique},
	}
	for _, c := range cases {
		if got := c.path.Class(); got != c.want {
			t.Errorf("%v.Class() = %v want %v", c.path, got, c.want)
		}
	}
}

func TestAuthPathSMSOnly(t *testing.T) {
	yes := []AuthPath{
		{Factors: []FactorKind{FactorSMSCode}},
		{Factors: []FactorKind{FactorCellphone, FactorSMSCode}},
	}
	no := []AuthPath{
		{Factors: nil},
		{Factors: []FactorKind{FactorCellphone}}, // phone alone is not auth
		{Factors: []FactorKind{FactorSMSCode, FactorCitizenID}},
		{Factors: []FactorKind{FactorPassword}},
	}
	for _, p := range yes {
		if !p.SMSOnly() {
			t.Errorf("%v should be SMS-only", p)
		}
	}
	for _, p := range no {
		if p.SMSOnly() {
			t.Errorf("%v should not be SMS-only", p)
		}
	}
}

func TestPresenceQueries(t *testing.T) {
	pr := Presence{
		Platform: PlatformWeb,
		Paths: []AuthPath{
			{ID: "login-1", Purpose: PurposeSignIn, Factors: []FactorKind{FactorPassword}},
			{ID: "reset-1", Purpose: PurposeReset, Factors: []FactorKind{FactorCellphone, FactorSMSCode}},
			{ID: "pay-1", Purpose: PurposePaymentReset, Factors: []FactorKind{FactorBankcard}},
		},
		Exposes: []Exposure{
			{Field: InfoRealName},
			{Field: InfoBankcard, Mask: MaskSpec{Masked: true, VisibleSuffix: 4}},
		},
	}
	if got := len(pr.TakeoverPaths()); got != 2 {
		t.Errorf("TakeoverPaths = %d, want 2 (payment reset excluded)", got)
	}
	if !pr.HasSMSOnlyPath() {
		t.Error("presence with PN+SC reset must have SMS-only path")
	}
	fields := pr.ExposedFields()
	if !fields[InfoRealName] || !fields[InfoBankcard] {
		t.Error("ExposedFields missing entries")
	}
	e, ok := pr.Exposure(InfoBankcard)
	if !ok || !e.Mask.Masked || e.Mask.VisibleSuffix != 4 {
		t.Errorf("Exposure(bankcard) = %+v, %v", e, ok)
	}
	if _, ok := pr.Exposure(InfoCitizenID); ok {
		t.Error("Exposure should miss for unexposed field")
	}
}

func TestCatalogConstruction(t *testing.T) {
	specs := []*ServiceSpec{
		{Name: "a", Domain: DomainEmail, Presences: []Presence{{Platform: PlatformWeb}}},
		{Name: "b", Domain: DomainFintech, Presences: []Presence{
			{Platform: PlatformWeb}, {Platform: PlatformMobile},
		}},
	}
	c, err := NewCatalog(specs)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.CountPlatform(PlatformWeb) != 2 || c.CountPlatform(PlatformMobile) != 1 {
		t.Errorf("platform counts wrong: web=%d mobile=%d",
			c.CountPlatform(PlatformWeb), c.CountPlatform(PlatformMobile))
	}
	if _, ok := c.ByName("a"); !ok {
		t.Error("ByName(a) missed")
	}
	if _, ok := c.PresenceOf(AccountID{Service: "b", Platform: PlatformMobile}); !ok {
		t.Error("PresenceOf(b/mobile) missed")
	}
	if _, ok := c.PresenceOf(AccountID{Service: "zzz", Platform: PlatformWeb}); ok {
		t.Error("PresenceOf unknown service should miss")
	}
}

func TestCatalogRejectsDuplicatesAndNil(t *testing.T) {
	if _, err := NewCatalog([]*ServiceSpec{{Name: "x"}, {Name: "x"}}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := NewCatalog([]*ServiceSpec{nil}); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := NewCatalog([]*ServiceSpec{{Name: ""}}); err == nil {
		t.Error("empty name accepted")
	}
}

func TestAttackerProfile(t *testing.T) {
	ap := BaselineAttacker()
	smsPath := AuthPath{Purpose: PurposeReset, Factors: []FactorKind{FactorCellphone, FactorSMSCode}}
	idPath := AuthPath{Purpose: PurposeReset, Factors: []FactorKind{FactorSMSCode, FactorCitizenID}}
	if !ap.CanSatisfy(smsPath) {
		t.Error("baseline attacker must satisfy PN+SC")
	}
	if ap.CanSatisfy(idPath) {
		t.Error("baseline attacker must not satisfy SC+CID")
	}
	ap.KnownInfo.Add(InfoCitizenID)
	if !ap.CanSatisfy(idPath) {
		t.Error("attacker with citizen ID must satisfy SC+CID")
	}
	clone := ap.Clone()
	clone.KnownInfo.Add(InfoBankcard)
	if ap.KnownInfo[InfoBankcard] {
		t.Error("Clone is not independent")
	}
}

// Property: Union is commutative and monotone wrt Contains.
func TestFactorSetUnionProperties(t *testing.T) {
	mk := func(bits uint32) FactorSet {
		s := make(FactorSet)
		for _, k := range AllFactorKinds() {
			if bits&(1<<uint(int(k)%31)) != 0 {
				s[k] = true
			}
		}
		return s
	}
	f := func(a, b uint32) bool {
		sa, sb := mk(a), mk(b)
		u1, u2 := sa.Union(sb), sb.Union(sa)
		if u1.Len() != u2.Len() || !u1.Contains(u2) || !u2.Contains(u1) {
			return false
		}
		return u1.Contains(sa) && u1.Contains(sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	if PlatformWeb.String() != "web" || PlatformMobile.String() != "mobile" {
		t.Error("Platform strings wrong")
	}
	if Platform(9).String() != "platform(?)" {
		t.Error("unknown platform string")
	}
	for _, d := range AllDomains() {
		if d.String() == "domain(?)" {
			t.Errorf("domain %d unnamed", d)
		}
	}
	id := AccountID{Service: "gmail", Platform: PlatformWeb}
	if id.String() != "gmail/web" {
		t.Errorf("AccountID.String = %q", id.String())
	}
	p := AuthPath{Purpose: PurposeReset, Factors: []FactorKind{FactorCellphone, FactorSMSCode}}
	if p.String() != "password-reset{PN+SC}" {
		t.Errorf("AuthPath.String = %q", p.String())
	}
	for _, pp := range []PathPurpose{PurposeSignIn, PurposeReset, PurposePaymentReset} {
		if pp.String() == "purpose(?)" {
			t.Errorf("purpose %d unnamed", pp)
		}
	}
	for _, pc := range []PathClass{ClassGeneral, ClassInfo, ClassUnique} {
		if pc.String() == "class(?)" {
			t.Errorf("class %d unnamed", pc)
		}
	}
	for _, sm := range []SignupMethod{SignupUsername, SignupEmail, SignupPhone, SignupLinked} {
		if sm.String() == "signup(?)" {
			t.Errorf("signup method %d unnamed", sm)
		}
	}
	for _, cat := range []InfoCategory{CategoryIdentity, CategoryAccount, CategoryRelationship, CategoryProperty, CategoryHistorical} {
		if cat.String() == "category(?)" {
			t.Errorf("category %d unnamed", cat)
		}
	}
}
