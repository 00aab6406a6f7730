package attack

import (
	"context"
	"errors"
	"fmt"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/dataset"
	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/email"
	"github.com/actfort/actfort/internal/identity"
	"github.com/actfort/actfort/internal/services"
	"github.com/actfort/actfort/internal/sniffer"
	"github.com/actfort/actfort/internal/socialdb"
	"github.com/actfort/actfort/internal/strategy"
	"github.com/actfort/actfort/internal/tdg"
	"github.com/actfort/actfort/internal/telecom"
)

// ScenarioConfig tunes the end-to-end environment.
type ScenarioConfig struct {
	// Seed drives the victim persona and network randomness.
	Seed int64
	// KeyBits is the A5/1 session-key space (default 12: cracks in
	// milliseconds, still a real key recovery).
	KeyBits int
	// CrackBackend selects the A5/1 key-recovery backend for the
	// passive rig (see a51.NewCracker): "bitsliced" (the default when
	// empty) or "table". "table" precomputes an a51.Table over the
	// network's key space and the paging frame classes of the 51×26
	// COUNT schedule, so every session resolves with an amortized
	// table lookup.
	CrackBackend string
	// Launch lists service names to bring up live; empty launches the
	// case-study set (gmail, paypal, alipay, baidu-wallet, ctrip).
	Launch []string
}

// CaseStudyServices is the §V.B footprint.
var CaseStudyServices = []string{"gmail", "paypal", "alipay", "baidu-wallet", "ctrip"}

// Scenario is a fully wired end-to-end world: calibrated catalog, GSM
// network with an attached victim, live services, a leaked-records DB
// holding the victim's phone number, and a tuned passive sniffer.
type Scenario struct {
	Catalog        *ecosys.Catalog
	Net            *telecom.Network
	Cell           *telecom.Cell
	Mail           *email.Server
	Platform       *services.Platform
	Victim         services.User
	VictimTerminal *telecom.Terminal
	Sniffer        *sniffer.Sniffer
	LeakDB         *socialdb.DB
	// Cracker is the key-recovery backend the passive rig uses: the
	// rig hands it each trace's fresh cracks as one RecoverBatch call.
	// Callers wiring up an active MitM attack against this scenario
	// should pass it as mitm.Config.Cracker to enable the A5/1 probe,
	// which cracks its one paging burst as a batch of one.
	Cracker a51.Cracker
}

// NewScenario builds and starts the world.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	if cfg.KeyBits <= 0 {
		cfg.KeyBits = 12
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	launch := cfg.Launch
	if len(launch) == 0 {
		launch = CaseStudyServices
	}

	cat, err := dataset.Default()
	if err != nil {
		return nil, err
	}
	netCfg := telecom.Config{
		KeySpace: a51.KeySpace{Base: 0xC118000000000000, Bits: cfg.KeyBits},
		Seed:     cfg.Seed,
	}
	net := telecom.NewNetwork(netCfg)
	cracker, err := a51.NewCracker(cfg.CrackBackend, net.KeySpace())
	if err != nil {
		return nil, err
	}
	cell, err := net.AddCell(telecom.Cell{ID: "cell-centro", ARFCNs: []int{512, 513, 514}, Cipher: telecom.CipherA51})
	if err != nil {
		return nil, err
	}

	persona := identity.NewGenerator(cfg.Seed).Persona(0)
	sub, err := net.Register("460001112223334", persona.Phone)
	if err != nil {
		return nil, err
	}
	term, err := net.NewTerminal(sub, telecom.RATGSM)
	if err != nil {
		return nil, err
	}
	if err := term.Attach(cell); err != nil {
		return nil, err
	}

	mail := email.NewServer()
	platform, err := services.NewPlatform(services.Config{Catalog: cat, Net: net, Mail: mail})
	if err != nil {
		return nil, err
	}
	if _, err := platform.LaunchAll(launch...); err != nil {
		platform.Close()
		return nil, err
	}
	victim := services.User{
		Persona:      persona,
		Password:     "correct-horse-battery",
		DeviceSecret: "genuine-device-secret",
	}
	if err := platform.Provision(victim); err != nil {
		platform.Close()
		return nil, err
	}

	// The attacker's out-of-band inputs: the phone number from a
	// leaked database (targeted mode, §V.A.1).
	leak := socialdb.New()
	leak.Add(socialdb.Record{
		Phone: persona.Phone, RealName: persona.RealName, Source: "2016-breach",
	})

	// Passive rig covering the victim cell's channels.
	sn := sniffer.New(net, sniffer.Config{Cracker: cracker})
	if err := sn.Tune(cell.ARFCNs...); err != nil {
		platform.Close()
		return nil, err
	}

	return &Scenario{
		Catalog:        cat,
		Net:            net,
		Cell:           cell,
		Mail:           mail,
		Platform:       platform,
		Victim:         victim,
		VictimTerminal: term,
		Sniffer:        sn,
		LeakDB:         leak,
		Cracker:        cracker,
	}, nil
}

// Close tears the world down.
func (s *Scenario) Close() {
	s.Sniffer.Stop()
	s.Platform.Close()
}

// LaunchedGraph builds the TDG restricted to launched services, so
// generated plans route only through live instances.
func (s *Scenario) LaunchedGraph() (*tdg.Graph, error) {
	var nodes []tdg.Node
	for _, n := range tdg.NodesFromCatalog(s.Catalog) {
		if _, ok := s.Platform.Instance(n.ID); ok {
			nodes = append(nodes, n)
		}
	}
	return tdg.Build(nodes, ecosys.BaselineAttacker())
}

// PlanFor computes a shallowest chain to target over launched services.
func (s *Scenario) PlanFor(target ecosys.AccountID) (*strategy.Plan, error) {
	g, err := s.LaunchedGraph()
	if err != nil {
		return nil, err
	}
	return strategy.Solve(g).Plan(target, 0)
}

// PlanVia selects, among ActFort's candidate plans for target, one
// that pivots through the named middle service — how the paper's
// authors picked Ctrip for Case III from the strategy output.
func (s *Scenario) PlanVia(target ecosys.AccountID, via string) (*strategy.Plan, error) {
	g, err := s.LaunchedGraph()
	if err != nil {
		return nil, err
	}
	sol := strategy.Solve(g)
	plans, err := sol.Plans(target, 0, 8)
	if err != nil {
		return nil, err
	}
	for _, p := range plans {
		for _, step := range p.Steps {
			if step.Account.Service == via && step.Account != target {
				return p, nil
			}
		}
	}
	// Deterministic fallback: splice the pivot in from the graph's
	// strong edges.
	for _, e := range g.StrongEdges() {
		if e.To != target || e.From.Service != via {
			continue
		}
		sub, err := sol.Plan(e.From, 0)
		if err != nil {
			continue
		}
		steps := append([]strategy.PlanStep(nil), sub.Steps...)
		steps = append(steps, strategy.PlanStep{
			Account: target, PathID: e.PathID, Parents: []ecosys.AccountID{e.From},
		})
		return &strategy.Plan{Target: target, Steps: steps}, nil
	}
	return nil, fmt.Errorf("attack: no plan for %s via %s", target, via)
}

// NewExecutor wires an executor with passive-sniffer interception and
// a dossier seeded from the leaked-records database.
func (s *Scenario) NewExecutor() (*Executor, error) {
	rec, err := s.LeakDB.Lookup(s.Victim.Persona.Phone)
	if err != nil {
		return nil, fmt.Errorf("attack: victim not in leak DB: %w", err)
	}
	know := NewKnowledge(rec.Phone)
	if rec.RealName != "" {
		know.Ingest(ecosys.InfoRealName, rec.RealName)
	}
	return &Executor{
		Platform:  s.Platform,
		Intercept: &SnifferInterceptor{Sniffer: s.Sniffer},
		Know:      know,
	}, nil
}

// CaseReport is the outcome of one §V.B case study.
type CaseReport struct {
	Name    string
	Plan    string
	Lines   []string
	Receipt string
}

// ErrUnknownCase reports a case number outside I–III.
var ErrUnknownCase = errors.New("attack: unknown case study")

// RunCase executes one of the paper's three case studies end to end.
func (s *Scenario) RunCase(ctx context.Context, number int) (*CaseReport, error) {
	switch number {
	case 1:
		return s.caseI(ctx)
	case 2:
		return s.caseII(ctx)
	case 3:
		return s.caseIII(ctx)
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownCase, number)
}

// caseI — "We used SMS code as a one-time token to directly log into
// Baidu Wallet ... eligible to use QR code to make a payment."
func (s *Scenario) caseI(ctx context.Context) (*CaseReport, error) {
	target := ecosys.AccountID{Service: "baidu-wallet", Platform: ecosys.PlatformMobile}
	return s.runPlanAndPay(ctx, "Case I: direct wallet takeover", target)
}

// caseII — PayPal wants SMS + email code; Gmail resets with the phone
// number alone, and the mailbox then yields PayPal's code.
func (s *Scenario) caseII(ctx context.Context) (*CaseReport, error) {
	target := ecosys.AccountID{Service: "paypal", Platform: ecosys.PlatformWeb}
	return s.runPlanAndPay(ctx, "Case II: PayPal via Gmail", target)
}

// caseIII — Alipay mobile wants citizen ID + SMS; Ctrip's profile page
// hands over the citizen ID after an SMS-only login. The payment code
// falls to the same combination afterwards.
func (s *Scenario) caseIII(ctx context.Context) (*CaseReport, error) {
	target := ecosys.AccountID{Service: "alipay", Platform: ecosys.PlatformMobile}
	plan, err := s.PlanVia(target, "ctrip")
	if err != nil {
		return nil, err
	}
	rep, exec, err := s.execPlanAndPay(ctx, "Case III: Alipay via Ctrip", target, plan)
	if err != nil {
		return rep, err
	}

	// Reset the payment code too (the paper resets both). The dossier
	// already holds the citizen ID harvested from Ctrip.
	presence, _ := s.Catalog.PresenceOf(target)
	var payPath ecosys.AuthPath
	for _, p := range presence.Paths {
		if p.Purpose == ecosys.PurposePaymentReset {
			payPath = p
			break
		}
	}
	if payPath.ID == "" {
		return rep, errors.New("attack: alipay has no payment-reset path")
	}
	stepRes, _, err := exec.executeStep(ctx, strategy.PlanStep{Account: target, PathID: payPath.ID})
	if err != nil {
		return rep, fmt.Errorf("attack: payment-code reset: %w", err)
	}
	rep.Lines = append(rep.Lines, "payment code reset via "+stepRes.PathID)
	return rep, nil
}

// runPlanAndPay generates the plan, executes it and demonstrates a
// payment on the fintech target.
func (s *Scenario) runPlanAndPay(ctx context.Context, name string, target ecosys.AccountID) (*CaseReport, error) {
	plan, err := s.PlanFor(target)
	if err != nil {
		return nil, err
	}
	rep, _, err := s.execPlanAndPay(ctx, name, target, plan)
	return rep, err
}

// execPlanAndPay executes a prepared plan and demonstrates a payment,
// returning the executor so callers can continue with its dossier.
func (s *Scenario) execPlanAndPay(ctx context.Context, name string, target ecosys.AccountID, plan *strategy.Plan) (*CaseReport, *Executor, error) {
	exec, err := s.NewExecutor()
	if err != nil {
		return nil, nil, err
	}
	res, err := exec.Execute(ctx, plan)
	rep := &CaseReport{Name: name, Plan: plan.String()}
	if res != nil {
		rep.Lines = res.Transcript()
	}
	if err != nil {
		return rep, exec, err
	}
	receipt, err := exec.Pay(ctx, target, res.FinalToken)
	if err != nil {
		return rep, exec, err
	}
	rep.Receipt = receipt
	rep.Lines = append(rep.Lines, "payment executed: "+receipt)
	return rep, exec, nil
}
