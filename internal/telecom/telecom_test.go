package telecom

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/gsmcodec"
)

// testNet builds a network with one legit GSM/A5-1 cell and one
// subscriber attached via a GSM terminal.
func testNet(t *testing.T) (*Network, *Cell, *Subscriber, *Terminal) {
	t.Helper()
	n := NewNetwork(Config{KeySpace: a51.KeySpace{Base: 0xC118000000000000, Bits: 12}, Seed: 7})
	cell, err := n.AddCell(Cell{ID: "cell-1", ARFCNs: []int{512, 513}, Cipher: CipherA51})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.Register("460001234567890", "+8613800000042")
	if err != nil {
		t.Fatal(err)
	}
	term, err := n.NewTerminal(sub, RATGSM)
	if err != nil {
		t.Fatal(err)
	}
	if err := term.Attach(cell); err != nil {
		t.Fatal(err)
	}
	return n, cell, sub, term
}

func TestRegistrationErrors(t *testing.T) {
	n := NewNetwork(DefaultConfig())
	if _, err := n.Register("", "+86138"); err == nil {
		t.Error("empty IMSI accepted")
	}
	if _, err := n.Register("1", ""); err == nil {
		t.Error("empty MSISDN accepted")
	}
	if _, err := n.Register("1", "+86138"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register("1", "+86139"); !errors.Is(err, ErrDuplicateSub) {
		t.Errorf("duplicate IMSI err = %v", err)
	}
	if _, err := n.Register("2", "+86138"); !errors.Is(err, ErrDuplicateSub) {
		t.Errorf("duplicate MSISDN err = %v", err)
	}
}

func TestAddCellErrors(t *testing.T) {
	n := NewNetwork(DefaultConfig())
	if _, err := n.AddCell(Cell{ID: "", ARFCNs: []int{1}}); err == nil {
		t.Error("empty cell ID accepted")
	}
	if _, err := n.AddCell(Cell{ID: "c", ARFCNs: nil}); err == nil {
		t.Error("cell without ARFCNs accepted")
	}
	if _, err := n.AddCell(Cell{ID: "c", ARFCNs: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddCell(Cell{ID: "c", ARFCNs: []int{2}}); !errors.Is(err, ErrDuplicateCell) {
		t.Errorf("duplicate cell err = %v", err)
	}
	if _, ok := n.Cell("c"); !ok {
		t.Error("Cell lookup missed")
	}
}

func TestSendSMSDeliversToInbox(t *testing.T) {
	n, _, sub, term := testNet(t)
	transport, err := n.SendSMS("Google", sub.MSISDN, "G-845512 is your verification code.")
	if err != nil {
		t.Fatal(err)
	}
	if transport != "gsm:A5/1" {
		t.Errorf("transport = %q want gsm:A5/1", transport)
	}
	got, ok := term.LastSMS()
	if !ok {
		t.Fatal("inbox empty")
	}
	if got.Originator != "Google" || got.Text != "G-845512 is your verification code." {
		t.Errorf("delivered %+v", got)
	}
}

func TestSendSMSEmitsEncryptedBursts(t *testing.T) {
	n, cell, sub, _ := testNet(t)
	var mu sync.Mutex
	var bursts []RadioBurst
	for _, arfcn := range cell.ARFCNs {
		cancel := n.Subscribe(arfcn, func(b RadioBurst) {
			mu.Lock()
			bursts = append(bursts, b)
			mu.Unlock()
		})
		defer cancel()
	}
	text := "Your PayPal code is 339201"
	if _, err := n.SendSMS("PayPal", sub.MSISDN, text); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bursts) < 2 {
		t.Fatalf("got %d bursts, want paging + payload", len(bursts))
	}
	for i, b := range bursts {
		if !b.Encrypted {
			t.Errorf("burst %d not encrypted on A5/1 cell", i)
		}
		if b.Seq != i {
			t.Errorf("burst %d has Seq %d", i, b.Seq)
		}
		if b.Total != len(bursts) {
			t.Errorf("burst %d Total=%d want %d", i, b.Total, len(bursts))
		}
	}
	// Burst 0 ciphertext must differ from the known paging plaintext.
	known := PagingPlaintext(bursts[0].SessionID)
	same := true
	for i := range known {
		if bursts[0].Payload[i] != known[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("paging burst was not encrypted")
	}
}

// End-to-end crack: derive keystream from the paging burst, recover
// Kc, decrypt the payload bursts, reassemble the TPDU. This is the
// core of what the sniffer package automates.
func TestBurstsCrackableViaKnownPlaintext(t *testing.T) {
	n, cell, sub, _ := testNet(t)
	var mu sync.Mutex
	var bursts []RadioBurst
	for _, arfcn := range cell.ARFCNs {
		cancel := n.Subscribe(arfcn, func(b RadioBurst) {
			mu.Lock()
			bursts = append(bursts, b)
			mu.Unlock()
		})
		defer cancel()
	}
	text := "Facebook code: 770123"
	if _, err := n.SendSMS("Facebook", sub.MSISDN, text); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	paging := bursts[0]
	ks, err := a51.DeriveKeystream(paging.Payload, PagingPlaintext(paging.SessionID))
	if err != nil {
		t.Fatal(err)
	}
	kc, err := a51.Exhaustive{Workers: 1}.Recover(context.Background(), ks, paging.Frame, n.KeySpace())
	if err != nil {
		t.Fatal(err)
	}
	var tpdu []byte
	for _, b := range bursts[1:] {
		tpdu = append(tpdu, a51.EncryptBurst(kc, b.Frame, b.Payload)...)
	}
	msg, err := gsmcodec.UnmarshalDeliver(tpdu)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Text != text || msg.Originator != "Facebook" {
		t.Errorf("cracked message %+v", msg)
	}
}

func TestA50CellSendsPlaintext(t *testing.T) {
	n := NewNetwork(Config{KeySpace: a51.KeySpace{Bits: 8}, Seed: 1})
	cell, err := n.AddCell(Cell{ID: "open", ARFCNs: []int{100}, Cipher: CipherA50})
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := n.Register("i1", "+8613900000001")
	term, _ := n.NewTerminal(sub, RATGSM)
	if err := term.Attach(cell); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var bursts []RadioBurst
	cancel := n.Subscribe(100, func(b RadioBurst) {
		mu.Lock()
		bursts = append(bursts, b)
		mu.Unlock()
	})
	defer cancel()
	if tr, err := n.SendSMS("Bank", sub.MSISDN, "code 1111"); err != nil || tr != "gsm:A5/0" {
		t.Fatalf("SendSMS = %q, %v", tr, err)
	}
	mu.Lock()
	defer mu.Unlock()
	var tpdu []byte
	for _, b := range bursts[1:] {
		if b.Encrypted {
			t.Fatal("A5/0 burst marked encrypted")
		}
		tpdu = append(tpdu, b.Payload...)
	}
	msg, err := gsmcodec.UnmarshalDeliver(tpdu)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Text != "code 1111" {
		t.Errorf("plaintext decode got %q", msg.Text)
	}
}

func TestLTEBypassesRadioBusUntilJammed(t *testing.T) {
	n := NewNetwork(Config{KeySpace: a51.KeySpace{Bits: 8}, Seed: 3})
	cell, err := n.AddCell(Cell{ID: "lte-1", ARFCNs: []int{700}, Cipher: CipherA51, LTE: true})
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := n.Register("i2", "+8613900000002")
	term, _ := n.NewTerminal(sub, RATLTE)
	if err := term.Attach(cell); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	count := 0
	cancel := n.Subscribe(700, func(RadioBurst) { mu.Lock(); count++; mu.Unlock() })
	defer cancel()

	if tr, err := n.SendSMS("Svc", sub.MSISDN, "over lte"); err != nil || tr != "lte" {
		t.Fatalf("SendSMS = %q, %v", tr, err)
	}
	mu.Lock()
	if count != 0 {
		t.Errorf("LTE delivery leaked %d bursts to GSM bus", count)
	}
	mu.Unlock()
	if term.RAT() != RATLTE {
		t.Errorf("RAT = %v want LTE", term.RAT())
	}

	// Jam the LTE plane: delivery must fall back to sniffable GSM.
	if err := n.SetLTEJammed(cell.ID, true); err != nil {
		t.Fatal(err)
	}
	if term.RAT() != RATGSM {
		t.Errorf("RAT after jamming = %v want GSM", term.RAT())
	}
	if tr, err := n.SendSMS("Svc", sub.MSISDN, "downgraded"); err != nil || tr != "gsm:A5/1" {
		t.Fatalf("SendSMS after jam = %q, %v", tr, err)
	}
	mu.Lock()
	if count == 0 {
		t.Error("no bursts on GSM bus after downgrade")
	}
	mu.Unlock()

	if err := n.SetLTEJammed("nope", true); !errors.Is(err, ErrUnknownCell) {
		t.Errorf("jamming unknown cell err = %v", err)
	}
	if got := len(term.Inbox()); got != 2 {
		t.Errorf("inbox size = %d want 2", got)
	}
}

func TestSendSMSErrors(t *testing.T) {
	n, _, _, _ := testNet(t)
	if _, err := n.SendSMS("x", "+860000", "hi"); !errors.Is(err, ErrNoSubscriber) {
		t.Errorf("unknown subscriber err = %v", err)
	}
	sub2, _ := n.Register("999", "+8613800000099")
	if _, err := n.SendSMS("x", sub2.MSISDN, "hi"); !errors.Is(err, ErrNoCoverage) {
		t.Errorf("no coverage err = %v", err)
	}
}

func TestLocationUpdateAuth(t *testing.T) {
	n, cell, sub, _ := testNet(t)
	term2, err := n.NewTerminal(sub, RATGSM)
	if err != nil {
		t.Fatal(err)
	}
	if err := term2.AttachTo(cell); err != nil {
		t.Fatal(err)
	}
	// Wrong SRES must fail.
	if _, err := n.BeginLocationUpdate(sub.IMSI); err != nil {
		t.Fatal(err)
	}
	if err := n.CompleteLocationUpdate(sub.IMSI, [4]byte{1, 2, 3, 4}, term2); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("bad SRES err = %v", err)
	}
	// No outstanding challenge after the failure consumed it.
	if err := n.CompleteLocationUpdate(sub.IMSI, [4]byte{}, term2); !errors.Is(err, ErrNoChallenge) {
		t.Errorf("no challenge err = %v", err)
	}
	if _, err := n.BeginLocationUpdate("bogus"); !errors.Is(err, ErrNoSubscriber) {
		t.Errorf("unknown IMSI err = %v", err)
	}
}

// The MitM-enabling property: a terminal that does NOT own the SIM can
// become the serving terminal by relaying the auth challenge to the
// real SIM (GSM never authenticates the network or binds the response
// to a device).
func TestAuthRelayHijacksServing(t *testing.T) {
	n, cell, sub, victim := testNet(t)
	if n.ServingTerminal(sub.IMSI) != victim {
		t.Fatal("victim should serve initially")
	}
	fvt, err := n.NewCloneTerminal(sub.IMSI) // attacker's fake victim terminal
	if err != nil {
		t.Fatal(err)
	}
	if err := fvt.AttachTo(cell); err != nil {
		t.Fatal(err)
	}
	// The clone holds no SIM secret: answering by itself must fail.
	rnd, err := n.BeginLocationUpdate(sub.IMSI)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.CompleteLocationUpdate(sub.IMSI, fvt.RespondAuth(rnd), fvt); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("clone answered its own challenge: err = %v", err)
	}
	// Relaying the challenge to the real SIM wins.
	rnd, err = n.BeginLocationUpdate(sub.IMSI)
	if err != nil {
		t.Fatal(err)
	}
	answer := victim.RespondAuth(rnd) // relayed through the fake BTS
	if err := n.CompleteLocationUpdate(sub.IMSI, answer, fvt); err != nil {
		t.Fatal(err)
	}
	if n.ServingTerminal(sub.IMSI) != fvt {
		t.Fatal("hijack did not switch the serving terminal")
	}
	// The victim no longer receives SMS: the attack is covert.
	if _, err := n.SendSMS("Bank", sub.MSISDN, "code 2222"); err != nil {
		t.Fatal(err)
	}
	if len(victim.Inbox()) != 0 {
		t.Error("victim received SMS after hijack")
	}
	if got, ok := fvt.LastSMS(); !ok || got.Text != "code 2222" {
		t.Errorf("attacker inbox %+v, %v", got, ok)
	}
}

func TestCallRevealsCallerID(t *testing.T) {
	n, cell, sub, _ := testNet(t)
	attacker, _ := n.Register("777", "+8613800000777")
	attTerm, _ := n.NewTerminal(attacker, RATGSM)
	if err := attTerm.Attach(cell); err != nil {
		t.Fatal(err)
	}
	victimTerm := n.ServingTerminal(sub.IMSI)
	if err := victimTerm.PlaceCall(attacker.MSISDN); err != nil {
		t.Fatal(err)
	}
	calls := attTerm.Calls()
	if len(calls) != 1 || calls[0].FromMSISDN != sub.MSISDN {
		t.Fatalf("caller ID not revealed: %+v", calls)
	}
	detached, _ := n.NewTerminal(sub, RATGSM)
	if err := detached.PlaceCall(attacker.MSISDN); !errors.Is(err, ErrDetached) {
		t.Errorf("detached call err = %v", err)
	}
}

func TestTerminalValidation(t *testing.T) {
	n, _, sub, _ := testNet(t)
	if _, err := n.NewTerminal(nil, RATGSM); err == nil {
		t.Error("nil subscriber accepted")
	}
	if _, err := n.NewTerminal(sub, RAT(0)); err == nil {
		t.Error("invalid RAT accepted")
	}
	foreign := &Subscriber{IMSI: "not-registered", MSISDN: "+860"}
	if _, err := n.NewTerminal(foreign, RATGSM); !errors.Is(err, ErrNoSubscriber) {
		t.Errorf("foreign subscriber err = %v", err)
	}
}

func TestReselectionPicksStrongestCell(t *testing.T) {
	n, cell, _, term := testNet(t)
	// Baseline: the only cell wins.
	got, err := term.Reselect()
	if err != nil || got.ID != cell.ID {
		t.Fatalf("Reselect = %v, %v", got, err)
	}
	// A louder rogue cell captures the terminal.
	rogue, err := n.AddCell(Cell{ID: "evil", ARFCNs: []int{900}, Cipher: CipherA50, Rogue: true, Power: 99})
	if err != nil {
		t.Fatal(err)
	}
	got, err = term.Reselect()
	if err != nil || got.ID != rogue.ID {
		t.Fatalf("Reselect with rogue = %v, %v", got, err)
	}
	// An even louder legitimate cell takes it back.
	stronger, err := n.AddCell(Cell{ID: "macro", ARFCNs: []int{901}, Cipher: CipherA51, Power: 200})
	if err != nil {
		t.Fatal(err)
	}
	got, err = term.Reselect()
	if err != nil || got.ID != stronger.ID {
		t.Fatalf("Reselect with macro = %v, %v", got, err)
	}
	// Deterministic tie-break by ID.
	if _, err := n.AddCell(Cell{ID: "aaa", ARFCNs: []int{902}, Power: 200}); err != nil {
		t.Fatal(err)
	}
	got, err = term.Reselect()
	if err != nil || got.ID != "aaa" {
		t.Fatalf("tie-break Reselect = %v, %v", got, err)
	}
}

func TestStrongestCellEmptyNetwork(t *testing.T) {
	n := NewNetwork(DefaultConfig())
	if _, ok := n.StrongestCell(); ok {
		t.Error("empty network returned a cell")
	}
	sub, _ := n.Register("i", "+86138")
	term, _ := n.NewTerminal(sub, RATGSM)
	if _, err := term.Reselect(); err == nil {
		t.Error("reselection with no cells succeeded")
	}
}

func TestSubscribeCancel(t *testing.T) {
	n, _, sub, _ := testNet(t)
	var mu sync.Mutex
	count := 0
	cancel := n.Subscribe(512, func(RadioBurst) { mu.Lock(); count++; mu.Unlock() })
	cancel()
	if _, err := n.SendSMS("x", sub.MSISDN, "hello"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 0 {
		t.Errorf("cancelled listener received %d bursts", count)
	}
}

func TestDeliveryStats(t *testing.T) {
	n, _, sub, _ := testNet(t)
	for i := 0; i < 3; i++ {
		if _, err := n.SendSMS("x", sub.MSISDN, "m"); err != nil {
			t.Fatal(err)
		}
	}
	stats := n.DeliveryStats()
	if stats["gsm:A5/1"] != 3 {
		t.Errorf("stats = %v", stats)
	}
}

func TestConcurrentSendSMS(t *testing.T) {
	n, cell, _, _ := testNet(t)
	const workers = 8
	terms := make([]*Terminal, workers)
	for i := 0; i < workers; i++ {
		sub, err := n.Register(fmt.Sprintf("imsi-%d", i), fmt.Sprintf("+86138%08d", i))
		if err != nil {
			t.Fatal(err)
		}
		terms[i], _ = n.NewTerminal(sub, RATGSM)
		if err := terms[i].Attach(cell); err != nil {
			t.Fatal(err)
		}
	}
	cancel := n.Subscribe(512, func(RadioBurst) {})
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := n.SendSMS("Svc", terms[i].MSISDN(), "msg"); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, term := range terms {
		if got := len(term.Inbox()); got != 20 {
			t.Errorf("terminal %d inbox = %d want 20", i, got)
		}
	}
}

func TestStringers(t *testing.T) {
	if CipherA50.String() != "A5/0" || CipherA51.String() != "A5/1" {
		t.Error("cipher strings")
	}
	if CipherMode(0).String() != "cipher(?)" {
		t.Error("unknown cipher string")
	}
	if RATGSM.String() != "gsm" || RATLTE.String() != "lte" || RAT(0).String() != "rat(?)" {
		t.Error("rat strings")
	}
}

func BenchmarkSendSMSA51(b *testing.B) {
	n := NewNetwork(Config{KeySpace: a51.KeySpace{Bits: 12}, Seed: 1})
	cell, _ := n.AddCell(Cell{ID: "c", ARFCNs: []int{512}, Cipher: CipherA51})
	sub, _ := n.Register("i", "+8613800000001")
	term, _ := n.NewTerminal(sub, RATGSM)
	if err := term.Attach(cell); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.SendSMS("Svc", sub.MSISDN, "Your code is 845512"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBurstAuthContext checks that emitted bursts carry the identity
// context (IMSI, RAND) of the session — the clear-text metadata real
// GSM exposes during paging and authentication.
func TestBurstAuthContext(t *testing.T) {
	n, _, sub, _ := testNet(t)
	var bursts []RadioBurst
	var mu sync.Mutex
	for _, a := range []int{512, 513} {
		cancel := n.Subscribe(a, func(b RadioBurst) {
			mu.Lock()
			bursts = append(bursts, b)
			mu.Unlock()
		})
		defer cancel()
	}
	if _, err := n.SendSMS("Svc", sub.MSISDN, "code 111111"); err != nil {
		t.Fatal(err)
	}
	if len(bursts) == 0 {
		t.Fatal("no bursts emitted")
	}
	for _, b := range bursts {
		if b.IMSI != sub.IMSI {
			t.Fatalf("burst IMSI = %q want %q", b.IMSI, sub.IMSI)
		}
		if b.RAND == ([16]byte{}) {
			t.Fatal("burst RAND empty on encrypted session")
		}
	}
}

// TestReauthEveryReusesContext pins the skipped-re-authentication
// model: RAND (and hence Kc) rotates only every ReauthEvery-th SMS
// session per subscriber.
func TestReauthEveryReusesContext(t *testing.T) {
	n := NewNetwork(Config{
		KeySpace:    a51.KeySpace{Base: 0xC118000000000000, Bits: 12},
		Seed:        7,
		ReauthEvery: 2,
	})
	cell, err := n.AddCell(Cell{ID: "c", ARFCNs: []int{512}, Cipher: CipherA51})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.Register("460001234567890", "+8613800000042")
	if err != nil {
		t.Fatal(err)
	}
	term, err := n.NewTerminal(sub, RATGSM)
	if err != nil {
		t.Fatal(err)
	}
	if err := term.Attach(cell); err != nil {
		t.Fatal(err)
	}
	var rands [][16]byte
	var mu sync.Mutex
	cancel := n.Subscribe(512, func(b RadioBurst) {
		if b.Seq == 0 {
			mu.Lock()
			rands = append(rands, b.RAND)
			mu.Unlock()
		}
	})
	defer cancel()
	for i := 0; i < 4; i++ {
		if _, err := n.SendSMS("Svc", sub.MSISDN, "code 111111"); err != nil {
			t.Fatal(err)
		}
	}
	if len(rands) != 4 {
		t.Fatalf("paging bursts = %d", len(rands))
	}
	if rands[0] != rands[1] || rands[2] != rands[3] {
		t.Fatal("sessions within an epoch must share RAND")
	}
	if rands[0] == rands[2] {
		t.Fatal("epochs must rotate RAND")
	}
}

// TestEncodeSMSBursts checks the standalone encoder produces the
// session structure the sniffer expects: paging burst first, frames
// wrapped, payload decryptable back to the TPDU.
func TestEncodeSMSBursts(t *testing.T) {
	deliver := gsmcodec.Deliver{Originator: "Svc", Text: "code 845512"}
	const kc = 0xC118000000000042
	bursts, err := EncodeSMSBursts(SMSSession{
		ARFCN: 512, CellID: "c", SessionID: 9, StartFrame: 49,
		Cipher: CipherA51, Kc: kc, IMSI: "460001234567890",
		Deliver: deliver,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bursts) < 2 {
		t.Fatalf("bursts = %d", len(bursts))
	}
	if bursts[0].Seq != 0 || bursts[0].Total != len(bursts) {
		t.Fatalf("paging burst = %+v", bursts[0])
	}
	for i, b := range bursts {
		if want := Count22(49 + uint32(i)); b.Frame != want {
			t.Fatalf("burst %d frame = %d want COUNT %d", i, b.Frame, want)
		}
	}
	// Decrypt payload bursts and reassemble the TPDU.
	var tpdu []byte
	for _, b := range bursts[1:] {
		tpdu = append(tpdu, a51.EncryptBurst(kc, b.Frame, b.Payload)...)
	}
	msg, err := gsmcodec.UnmarshalDeliver(tpdu)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Text != deliver.Text || msg.Originator != deliver.Originator {
		t.Fatalf("round trip = %+v", msg)
	}
}
