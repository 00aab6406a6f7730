package attack

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/actfort/actfort/internal/ecosys"
	"github.com/actfort/actfort/internal/strategy"
)

func newScenario(t *testing.T) *Scenario {
	t.Helper()
	s, err := NewScenario(ScenarioConfig{Seed: 42, KeyBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func ctxFor(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestCaseIDirectWalletTakeover(t *testing.T) {
	s := newScenario(t)
	rep, err := s.RunCase(ctxFor(t), 1)
	if err != nil {
		t.Fatalf("%v (lines: %v)", err, rep)
	}
	if rep.Plan != "baidu-wallet/mobile" {
		t.Errorf("plan = %q want direct", rep.Plan)
	}
	if rep.Receipt == "" || !strings.Contains(rep.Receipt, "baidu-wallet") {
		t.Errorf("receipt = %q", rep.Receipt)
	}
	// Passive sniffing is observable: the victim got the code too.
	if len(s.VictimTerminal.Inbox()) == 0 {
		t.Error("victim inbox empty; passive interception should be observable")
	}
}

func TestCaseIIPayPalViaGmail(t *testing.T) {
	s := newScenario(t)
	rep, err := s.RunCase(ctxFor(t), 2)
	if err != nil {
		t.Fatalf("%v (lines: %v)", err, rep)
	}
	if !strings.Contains(rep.Plan, "gmail") || !strings.Contains(rep.Plan, "paypal") {
		t.Errorf("plan = %q; want gmail -> paypal", rep.Plan)
	}
	if !strings.Contains(rep.Receipt, "paypal") {
		t.Errorf("receipt = %q", rep.Receipt)
	}
	joined := strings.Join(rep.Lines, "\n")
	if !strings.Contains(joined, "gmail") {
		t.Errorf("transcript missing the gmail pivot:\n%s", joined)
	}
}

func TestCaseIIIAlipayViaCtrip(t *testing.T) {
	s := newScenario(t)
	rep, err := s.RunCase(ctxFor(t), 3)
	if err != nil {
		t.Fatalf("%v (lines: %v)", err, rep)
	}
	if !strings.Contains(rep.Plan, "ctrip") || !strings.Contains(rep.Plan, "alipay") {
		t.Errorf("plan = %q; want ctrip -> alipay", rep.Plan)
	}
	joined := strings.Join(rep.Lines, "\n")
	if !strings.Contains(joined, "payment code reset") {
		t.Errorf("payment code was not reset:\n%s", joined)
	}
	if !strings.Contains(rep.Receipt, "alipay") {
		t.Errorf("receipt = %q", rep.Receipt)
	}
}

func TestUnknownCase(t *testing.T) {
	s := newScenario(t)
	if _, err := s.RunCase(ctxFor(t), 9); !errors.Is(err, ErrUnknownCase) {
		t.Errorf("err = %v", err)
	}
}

func TestExecutorFailsWithoutRequiredKnowledge(t *testing.T) {
	s := newScenario(t)
	// An executor whose dossier lacks the citizen ID and that cannot
	// pivot (no plan executed) must fail cleanly on alipay.
	exec, err := s.NewExecutor()
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = exec.executeStep(ctxFor(t), planStepFor("alipay", ecosys.PlatformMobile, "reset-cid"))
	if !errors.Is(err, ErrMissingFactor) {
		t.Errorf("err = %v want ErrMissingFactor", err)
	}
}

func TestExecutorFailsOnUnlaunchedService(t *testing.T) {
	s := newScenario(t)
	exec, err := s.NewExecutor()
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = exec.executeStep(ctxFor(t), planStepFor("linkedin", ecosys.PlatformWeb, "reset-sms"))
	if !errors.Is(err, ErrNotLaunched) {
		t.Errorf("err = %v want ErrNotLaunched", err)
	}
}

// Knowledge unit behavior.
func TestKnowledgeCombinesMaskedViews(t *testing.T) {
	k := NewKnowledge("+8613800000001")
	secret := "330106198811230417"
	k.Ingest(ecosys.InfoCitizenID, secret[:6]+strings.Repeat("*", 12))
	if _, ok := k.Value(ecosys.InfoCitizenID); ok {
		t.Fatal("one view should not complete the value")
	}
	k.Ingest(ecosys.InfoCitizenID, strings.Repeat("*", 6)+secret[6:])
	v, ok := k.Value(ecosys.InfoCitizenID)
	if !ok || v != secret {
		t.Fatalf("combined value = %q, %v", v, ok)
	}
	if got := len(k.Views(ecosys.InfoCitizenID)); got != 2 {
		t.Errorf("views = %d", got)
	}
}

func TestKnowledgeFactorValues(t *testing.T) {
	k := NewKnowledge("+8613800000001")
	if v, ok := k.FactorValue(ecosys.FactorCellphone); !ok || v != "+8613800000001" {
		t.Errorf("cellphone = %q, %v", v, ok)
	}
	if _, ok := k.FactorValue(ecosys.FactorCitizenID); ok {
		t.Error("unknown citizen ID resolved")
	}
	k.Ingest(ecosys.InfoAcquaintance, "Wang Wei, Li Na")
	if v, ok := k.FactorValue(ecosys.FactorAcquaintance); !ok || v != "Wang Wei" {
		t.Errorf("acquaintance = %q, %v", v, ok)
	}
	if _, ok := k.FactorValue(ecosys.FactorPassword); ok {
		t.Error("password should never be sourceable")
	}
	k.Ingest(ecosys.InfoUserID, "")
	if _, ok := k.Value(ecosys.InfoUserID); ok {
		t.Error("empty ingest stored")
	}
}

func planStepFor(service string, platform ecosys.Platform, pathID string) strategy.PlanStep {
	return strategy.PlanStep{
		Account: ecosys.AccountID{Service: service, Platform: platform},
		PathID:  pathID,
	}
}

// TestCaseIWithTableBackend reruns the direct takeover with the
// Kraken-style TMTO backend: the scenario precomputes an a51.Table,
// wraps the network's cipher frames into its window, and every code
// interception resolves by table lookup.
func TestCaseIWithTableBackend(t *testing.T) {
	s, err := NewScenario(ScenarioConfig{Seed: 42, KeyBits: 8, CrackBackend: "table"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if s.Cracker.Name() != "table" {
		t.Fatalf("cracker = %s want table", s.Cracker.Name())
	}
	rep, err := s.RunCase(ctxFor(t), 1)
	if err != nil {
		t.Fatalf("%v (lines: %v)", err, rep)
	}
	if rep.Receipt == "" {
		t.Error("no payment receipt")
	}
	if st := s.Sniffer.Stats(); st.CracksAttempted == 0 || st.CracksSucceeded != st.CracksAttempted {
		t.Errorf("crack stats = %+v", st)
	}
}

// TestScenarioRejectsUnknownBackend keeps the config surface honest.
func TestScenarioRejectsUnknownBackend(t *testing.T) {
	if _, err := NewScenario(ScenarioConfig{KeyBits: 8, CrackBackend: "quantum"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestCaseTranscriptDeterministic runs each case study twice from the
// same seed and requires identical step lines: harvested profile fields
// must not follow map iteration order.
func TestCaseTranscriptDeterministic(t *testing.T) {
	for n := 1; n <= 3; n++ {
		var lines [2][]string
		for run := range lines {
			rep, err := newScenario(t).RunCase(ctxFor(t), n)
			if err != nil {
				t.Fatalf("case %d run %d: %v", n, run, err)
			}
			lines[run] = rep.Lines
		}
		if a, b := strings.Join(lines[0], "\n"), strings.Join(lines[1], "\n"); a != b {
			t.Errorf("case %d transcripts differ:\n%s\n---\n%s", n, a, b)
		}
	}
}
