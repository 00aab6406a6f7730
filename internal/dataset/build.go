package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/tdg"
)

// buildSeed fixes the generator: the calibrated catalog is a data
// artifact, not a random sample — changing this constant changes the
// recorded experiment outputs.
const buildSeed = 20210419

// Catalog sizes (the paper's measurement frame).
const (
	// NumServices is the paper's 201 measured services.
	NumServices = 201
	// NumWeb is the web-presence count (Table I denominator).
	NumWeb = 187
	// NumMobile is the mobile-presence count (Table I denominator).
	NumMobile = 56
)

// Default builds the calibrated 201-service catalog. The result is
// deterministic; failures indicate an internal quota inconsistency and
// are returned as errors rather than silently skewing the measurement.
func Default() (*ecosys.Catalog, error) {
	plans := flagshipPlans()

	// Tally flagship consumption against the quota tables.
	webTmplLeft := cloneQuota(webTemplateQuota)
	mobTmplLeft := cloneQuota(mobileTemplateQuota)
	webExtraLeft := cloneQuota(webExtraQuota)
	mobExtraLeft := cloneQuota(mobileExtraQuota)
	for _, p := range plans {
		if p.web != nil {
			if err := consume(webTmplLeft, p.web.tmpl, p.name+"/web template"); err != nil {
				return nil, err
			}
			for _, x := range p.web.extras {
				if err := consume(webExtraLeft, x, p.name+"/web extra"); err != nil {
					return nil, err
				}
			}
		}
		if p.mobile != nil {
			if err := consume(mobTmplLeft, p.mobile.tmpl, p.name+"/mobile template"); err != nil {
				return nil, err
			}
			for _, x := range p.mobile.extras {
				if err := consume(mobExtraLeft, x, p.name+"/mobile extra"); err != nil {
					return nil, err
				}
			}
		}
	}

	// Expand remaining template quotas into filler slot lists.
	rng := rand.New(rand.NewSource(buildSeed))
	webSlots := expandSlots(webTmplLeft, rng)
	mobSlots := expandSlots(mobTmplLeft, rng)

	flagshipWeb, flagshipMobile := 0, 0
	for _, p := range plans {
		if p.web != nil {
			flagshipWeb++
		}
		if p.mobile != nil {
			flagshipMobile++
		}
	}
	fillerServices := NumServices - len(plans)
	needWeb := NumWeb - flagshipWeb
	needMobile := NumMobile - flagshipMobile
	if len(webSlots) != needWeb || len(mobSlots) != needMobile {
		return nil, fmt.Errorf("dataset: slot mismatch: web %d/%d mobile %d/%d",
			len(webSlots), needWeb, len(mobSlots), needMobile)
	}
	both := needWeb + needMobile - fillerServices
	if both < 0 || both > needMobile || both > needWeb {
		return nil, fmt.Errorf("dataset: impossible platform split (both=%d)", both)
	}

	// Materialize filler plans: the first `both` fillers get both
	// platforms, then web-only, then mobile-only.
	webIdx, mobIdx := 0, 0
	for i := 0; i < fillerServices; i++ {
		sp := servicePlan{
			name:   fmt.Sprintf("svc-%03d", i+1),
			domain: fillerDomains[i%len(fillerDomains)],
		}
		takeWeb := i < both || (webIdx < len(webSlots) && i >= both && i < both+(needWeb-both))
		takeMobile := i < both || i >= both+(needWeb-both)
		if takeWeb {
			sp.web = &presencePlan{
				tmpl:          webSlots[webIdx],
				emailProvider: emailProvidersWeb[webIdx%len(emailProvidersWeb)],
			}
			if sp.web.tmpl == tMidLNK {
				sp.web.boundTo = []string{ssoProviders[webIdx%len(ssoProviders)]}
			}
			webIdx++
		}
		if takeMobile {
			sp.mobile = &presencePlan{
				tmpl:          mobSlots[mobIdx],
				emailProvider: emailProvidersMobile[mobIdx%len(emailProvidersMobile)],
			}
			mobIdx++
		}
		plans = append(plans, sp)
	}
	if webIdx != len(webSlots) || mobIdx != len(mobSlots) {
		return nil, fmt.Errorf("dataset: unassigned slots: web %d/%d mobile %d/%d",
			webIdx, len(webSlots), mobIdx, len(mobSlots))
	}

	// Attach remaining extras to filler direct-template presences
	// (flagship path sets stay exactly as written), cycling so every
	// extra lands somewhere deterministic.
	fillers := plans[len(flagshipPlans()):]
	if err := attachExtras(fillers, webExtraLeft, ecosys.PlatformWeb, rng); err != nil {
		return nil, err
	}
	if err := attachExtras(fillers, mobExtraLeft, ecosys.PlatformMobile, rng); err != nil {
		return nil, err
	}

	// Materialize specs.
	specs := make([]*ecosys.ServiceSpec, 0, len(plans))
	for _, p := range plans {
		spec := &ecosys.ServiceSpec{Name: p.name, Domain: p.domain}
		if p.web != nil {
			spec.Presences = append(spec.Presences, materialize(ecosys.PlatformWeb, p.web))
		}
		if p.mobile != nil {
			spec.Presences = append(spec.Presences, materialize(ecosys.PlatformMobile, p.mobile))
		}
		specs = append(specs, spec)
	}

	// Top exposures up to the exact per-field quotas.
	if err := assignExposures(specs, ecosys.PlatformWeb, webExposureQuota); err != nil {
		return nil, err
	}
	if err := assignExposures(specs, ecosys.PlatformMobile, mobileExposureQuota); err != nil {
		return nil, err
	}

	return ecosys.NewCatalog(specs)
}

// MustDefault is Default panicking on error, for tests and benchmarks
// where the calibrated catalog is a precondition.
func MustDefault() *ecosys.Catalog {
	cat, err := Default()
	if err != nil {
		panic(err)
	}
	return cat
}

func cloneQuota[K comparable](m map[K]int) map[K]int {
	out := make(map[K]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func consume[K comparable](left map[K]int, k K, what string) error {
	if left[k] <= 0 {
		return fmt.Errorf("dataset: quota exhausted for %s (kind %v)", what, k)
	}
	left[k]--
	return nil
}

// expandSlots flattens a remaining-quota map into a shuffled slot
// list. Kinds are expanded in sorted order first so the shuffle is the
// only source of permutation.
func expandSlots(left map[templateKind]int, rng *rand.Rand) []templateKind {
	kinds := make([]int, 0, len(left))
	for k := range left {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	var slots []templateKind
	for _, k := range kinds {
		for i := 0; i < left[templateKind(k)]; i++ {
			slots = append(slots, templateKind(k))
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	return slots
}

// attachExtras distributes leftover extra paths over filler presences,
// preferring direct templates (extras model additional reset
// combinations on otherwise ordinary accounts).
func attachExtras(plans []servicePlan, left map[extraKind]int, platform ecosys.Platform, rng *rand.Rand) error {
	var hosts []*presencePlan
	for i := range plans {
		pp := plans[i].presence(platform)
		if pp == nil {
			continue
		}
		if templateTier(pp.tmpl) == tierDirect && len(pp.extras) == 0 {
			hosts = append(hosts, pp)
		}
	}
	if len(hosts) == 0 {
		return fmt.Errorf("dataset: no extra hosts on %v", platform)
	}
	rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })

	kinds := make([]int, 0, len(left))
	for k := range left {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	h := 0
	for _, k := range kinds {
		for i := 0; i < left[extraKind(k)]; i++ {
			hosts[h%len(hosts)].extras = append(hosts[h%len(hosts)].extras, extraKind(k))
			h++
		}
	}
	return nil
}

func (p *servicePlan) presence(platform ecosys.Platform) *presencePlan {
	if platform == ecosys.PlatformWeb {
		return p.web
	}
	return p.mobile
}

// materialize turns a plan into a concrete Presence.
func materialize(platform ecosys.Platform, pp *presencePlan) ecosys.Presence {
	paths := append([]ecosys.AuthPath(nil), pp.tmpl.paths()...)
	for i, x := range pp.extras {
		paths = append(paths, x.path(i))
	}
	return ecosys.Presence{
		Platform:      platform,
		SignupMethods: pp.tmpl.signupMethods(),
		Paths:         paths,
		Exposes:       append([]ecosys.Exposure(nil), pp.expose...),
		BoundTo:       append([]string(nil), pp.boundTo...),
		EmailProvider: pp.emailProvider,
	}
}

// assignExposures tops presences up to exact per-field quotas.
// Identity fields are assigned to fringe accounts first (so middle
// accounts are reachable); bankcards to middle accounts first (so
// depth-3 chains exist).
func assignExposures(specs []*ecosys.ServiceSpec, platform ecosys.Platform, quota map[ecosys.InfoField]int) error {
	type cand struct {
		pr *ecosys.Presence
		t  tier
	}
	var cands []cand
	for _, spec := range specs {
		for i := range spec.Presences {
			pr := &spec.Presences[i]
			if pr.Platform != platform {
				continue
			}
			cands = append(cands, cand{pr: pr, t: tierForPresence(pr)})
		}
	}

	ordered := func(field ecosys.InfoField) []cand {
		var tiers [][]cand
		byTier := func(t tier) []cand {
			var out []cand
			for _, c := range cands {
				if c.t == t {
					out = append(out, c)
				}
			}
			return out
		}
		if field == ecosys.InfoBankcard {
			tiers = [][]cand{byTier(tierMid2), byTier(tierMid3), byTier(tierSecure), byTier(tierDirect)}
		} else {
			tiers = [][]cand{byTier(tierDirect), byTier(tierMid2), byTier(tierMid3), byTier(tierSecure)}
		}
		var out []cand
		for ti, t := range tiers {
			if len(t) == 0 {
				continue
			}
			// Field- and tier-dependent rotation spreads assignments.
			off := (int(field)*7 + ti*13) % len(t)
			out = append(out, t[off:]...)
			out = append(out, t[:off]...)
		}
		return out
	}

	for _, field := range ecosys.AllInfoFields() {
		want, ok := quota[field]
		if !ok {
			continue
		}
		have := 0
		for _, c := range cands {
			if _, exposed := c.pr.Exposure(field); exposed {
				have++
			}
		}
		if have > want {
			return fmt.Errorf("dataset: flagship floors for %v on %v exceed quota: %d > %d",
				field, platform, have, want)
		}
		maskIdx := 1 // flagships used style 0; fillers rotate onward
		for _, c := range ordered(field) {
			if have == want {
				break
			}
			if _, exposed := c.pr.Exposure(field); exposed {
				continue
			}
			c.pr.Exposes = append(c.pr.Exposes, ecosys.Exposure{Field: field, Mask: maskFor(field, maskIdx)})
			maskIdx++
			have++
		}
		if have != want {
			return fmt.Errorf("dataset: cannot reach quota for %v on %v: %d < %d",
				field, platform, have, want)
		}
	}
	return nil
}

// tierForPresence recovers the assignment tier from a materialized
// presence by inspecting its paths (used because exposure assignment
// runs after materialization).
func tierForPresence(pr *ecosys.Presence) tier {
	if pr.HasSMSOnlyPath() {
		return tierDirect
	}
	needsBN, needsKYC, unphishableOnly := false, false, true
	for _, p := range pr.TakeoverPaths() {
		phishable := true
		for _, f := range p.Factors {
			if f.Unphishable() {
				phishable = false
			}
		}
		if phishable {
			unphishableOnly = false
		}
		if p.Requires(ecosys.FactorBankcard) {
			needsBN = true
			if p.Requires(ecosys.FactorCitizenID) {
				needsKYC = true
			}
		}
	}
	switch {
	case needsBN || needsKYC:
		return tierMid3
	case unphishableOnly:
		return tierSecure
	default:
		return tierMid2
	}
}

// Fig4Accounts returns the curated 44-account subset rendered in the
// paper's connection graph: every flagship web presence plus the first
// 13 flagship mobile presences (sorted by name).
func Fig4Accounts() []ecosys.AccountID {
	var web, mobile []ecosys.AccountID
	for _, p := range flagshipPlans() {
		if p.web != nil {
			web = append(web, ecosys.AccountID{Service: p.name, Platform: ecosys.PlatformWeb})
		}
		if p.mobile != nil {
			mobile = append(mobile, ecosys.AccountID{Service: p.name, Platform: ecosys.PlatformMobile})
		}
	}
	sort.Slice(web, func(i, j int) bool { return web[i].Service < web[j].Service })
	sort.Slice(mobile, func(i, j int) bool { return mobile[i].Service < mobile[j].Service })
	out := append([]ecosys.AccountID(nil), web...)
	out = append(out, mobile[:44-len(web)]...)
	return out
}

// Fig4Graph builds the TDG over the curated 44 accounts.
func Fig4Graph(cat *ecosys.Catalog, ap ecosys.AttackerProfile) (*tdg.Graph, error) {
	want := make(map[ecosys.AccountID]bool)
	for _, id := range Fig4Accounts() {
		want[id] = true
	}
	var nodes []tdg.Node
	for _, n := range tdg.NodesFromCatalog(cat) {
		if want[n.ID] {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) != len(want) {
		return nil, fmt.Errorf("dataset: Fig4 subset found %d of %d accounts", len(nodes), len(want))
	}
	return tdg.Build(nodes, ap)
}
