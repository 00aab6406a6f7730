// Package mitm implements the paper's active man-in-the-middle attack
// (Fig 7 hardware, Fig 10 message sequence): a 4G jammer downgrades
// the victim to GSM, a fake base station (FBS, "PC + USRP B100 based
// on OsmoNITB") captures the victim's terminal and IMSI, a fake victim
// terminal (FVT, "PC + Motorola C118 based on OsmocomBB") registers
// with the legitimate network by relaying the authentication challenge
// to the captive real SIM, a call reveals the victim's MSISDN, and
// from then on every SMS code for the victim is delivered exclusively
// to the attacker — more covert than passive sniffing because the
// victim's handset receives nothing.
package mitm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/telecom"
)

// Step names follow the Fig 10 sequence diagram.
const (
	StepJam4G        = "force-vt-to-gsm"    // 4G jammer downgrades LTE
	StepProbeA51     = "probe-a51-crack"    // confirm the GSM fallback is crackable
	StepDeployFBS    = "deploy-fbs"         // fake base station on air
	StepVictimCamps  = "vt-connects-fbs"    // victim camps on the rogue cell
	StepIMSICatch    = "get-imsi"           // identity request
	StepCloneFVT     = "socket-fvt"         // fake victim terminal ready
	StepLAURequest   = "request-lau"        // location update toward LBS
	StepAuthRelay    = "relay-auth"         // RAND relayed, SRES replayed
	StepLAUAccept    = "update-location"    // network now serves the FVT
	StepRevealMSISDN = "call-reveal-msisdn" // caller ID discloses the number
)

// Step is one executed protocol action.
type Step struct {
	Name   string
	Detail string
}

// Result is a successful takeover.
type Result struct {
	Steps        []Step
	VictimIMSI   string
	VictimMSISDN string
	// ProbeKc is the session key the optional pre-attack A5/1 probe
	// recovered from the legitimate cell (zero if the probe was
	// skipped), and ProbeCrackTime how long recovery took.
	ProbeKc        uint64
	ProbeCrackTime time.Duration
	// FVT is the attacker-controlled terminal now serving the victim's
	// traffic; every SMS code lands in its inbox.
	FVT *telecom.Terminal
	// FBS is the rogue cell holding the victim captive.
	FBS *telecom.Cell
}

// Timeline renders the executed steps, one per line, in Fig 10 order.
func (r *Result) Timeline() []string {
	out := make([]string, 0, len(r.Steps))
	for _, s := range r.Steps {
		out = append(out, s.Name+": "+s.Detail)
	}
	return out
}

// Config parameterizes the attack.
type Config struct {
	// FBSCellID names the rogue cell (must be unique in the network).
	FBSCellID string
	// FBSARFCN is the rogue cell's broadcast channel.
	FBSARFCN int
	// AttackerMSISDN receives the MSISDN-revealing call; it must be a
	// registered, attached subscriber (the attacker's own burner).
	AttackerMSISDN string
	// Cracker, when non-nil, enables the pre-attack A5/1 probe: after
	// forcing the GSM fallback the rig sends itself a message through
	// the legitimate cell and recovers the session key from the
	// captured bursts — confirming the downgraded plane is passively
	// crackable (the paper's §V.A.2 premise) and measuring the crack
	// cost the covert active path then avoids. Nil skips the probe.
	Cracker a51.Cracker
}

// Common errors.
var (
	ErrVictimStillLTE = errors.New("mitm: victim still on LTE after jamming")
	ErrNoRevealCall   = errors.New("mitm: reveal call did not reach the attacker terminal")
)

// Attack drives one takeover attempt.
type Attack struct {
	net          *telecom.Network
	victim       *telecom.Terminal
	legitCell    *telecom.Cell
	attackerTerm *telecom.Terminal
	cfg          Config
}

// New prepares an attack against victim, whose legitimate serving cell
// is legitCell. attackerTerm is the attacker's own phone (for the
// reveal call).
func New(net *telecom.Network, victim *telecom.Terminal, legitCell *telecom.Cell, attackerTerm *telecom.Terminal, cfg Config) (*Attack, error) {
	if net == nil || victim == nil || legitCell == nil || attackerTerm == nil {
		return nil, errors.New("mitm: nil network, victim, cell or attacker terminal")
	}
	if cfg.FBSCellID == "" {
		cfg.FBSCellID = "fbs-" + legitCell.ID
	}
	if cfg.FBSARFCN == 0 {
		cfg.FBSARFCN = 1000 + legitCell.ARFCNs[0]
	}
	if cfg.AttackerMSISDN == "" {
		cfg.AttackerMSISDN = attackerTerm.MSISDN()
	}
	return &Attack{net: net, victim: victim, legitCell: legitCell, attackerTerm: attackerTerm, cfg: cfg}, nil
}

// Run executes the Fig 10 sequence. On success the returned Result's
// FVT receives all of the victim's SMS traffic and the victim's
// MSISDN is known. Partial progress is returned inside the error path
// result for diagnosis.
func (a *Attack) Run() (*Result, error) {
	res := &Result{}
	step := func(name, detail string, args ...any) {
		res.Steps = append(res.Steps, Step{Name: name, Detail: fmt.Sprintf(detail, args...)})
	}

	// 1. Jam the LTE plane so the victim falls back to GSM.
	if err := a.net.SetLTEJammed(a.legitCell.ID, true); err != nil {
		return res, fmt.Errorf("mitm: jamming: %w", err)
	}
	step(StepJam4G, "LTE jammed on cell %s", a.legitCell.ID)
	if a.victim.RAT() != telecom.RATGSM {
		return res, ErrVictimStillLTE
	}

	// 1b. Optional probe: crack one of the legitimate cell's A5/1
	// sessions to confirm the downgraded GSM plane is breakable before
	// committing hardware to the active takeover. A capture miss (the
	// attacker's burner camped on another cell, so nothing heard on
	// the legit ARFCNs) is inconclusive, not fatal — the active attack
	// itself needs no key recovery. A crack that runs and fails still
	// aborts: it means the rig's key-space model is wrong.
	if a.cfg.Cracker != nil && a.legitCell.Cipher == telecom.CipherA51 {
		kc, dur, err := a.probeCrack()
		switch {
		case errors.Is(err, errProbeNoBurst):
			step(StepProbeA51, "inconclusive: %v", err)
		case err != nil:
			return res, fmt.Errorf("mitm: A5/1 probe: %w", err)
		default:
			res.ProbeKc, res.ProbeCrackTime = kc, dur
			step(StepProbeA51, "legit cell session key %#x recovered in %v via %s",
				kc, dur.Round(time.Microsecond), a.cfg.Cracker.Name())
		}
	}

	// 2. Raise the fake base station, broadcasting louder than every
	// legitimate cell so idle phones prefer it.
	strongest, _ := a.net.StrongestCell()
	power := 100
	if strongest != nil && strongest.Power >= power {
		power = strongest.Power + 10
	}
	fbs, err := a.net.AddCell(telecom.Cell{
		ID:     a.cfg.FBSCellID,
		ARFCNs: []int{a.cfg.FBSARFCN},
		Cipher: telecom.CipherA50, // rogue cells turn encryption off
		Rogue:  true,
		Power:  power,
	})
	if err != nil {
		return res, fmt.Errorf("mitm: deploying FBS: %w", err)
	}
	res.FBS = fbs
	step(StepDeployFBS, "rogue cell %s on ARFCN %d at power %d", fbs.ID, a.cfg.FBSARFCN, power)

	// 3. The victim's own reselection walks it onto the overpowering
	// rogue cell — no cooperation required.
	camped, err := a.victim.Reselect()
	if err != nil {
		return res, fmt.Errorf("mitm: victim reselection: %w", err)
	}
	if camped.ID != fbs.ID {
		return res, fmt.Errorf("mitm: victim reselected %s, not the FBS", camped.ID)
	}
	step(StepVictimCamps, "victim reselected onto %s", fbs.ID)

	// 4. Identity request: any serving cell may ask for the IMSI.
	res.VictimIMSI = a.victim.IMSI()
	step(StepIMSICatch, "IMSI %s", res.VictimIMSI)

	// 5. Fake victim terminal claims the IMSI toward the legit cell.
	fvt, err := a.net.NewCloneTerminal(res.VictimIMSI)
	if err != nil {
		return res, fmt.Errorf("mitm: cloning terminal: %w", err)
	}
	if err := fvt.AttachTo(a.legitCell); err != nil {
		return res, fmt.Errorf("mitm: attaching FVT: %w", err)
	}
	res.FVT = fvt
	step(StepCloneFVT, "FVT attached to legit cell %s as %s", a.legitCell.ID, res.VictimIMSI)

	// 6-8. Location update with relayed authentication: the network
	// challenges the FVT; the FBS forwards RAND to the captive SIM and
	// replays its SRES. GSM's one-way authentication cannot tell the
	// difference.
	rnd, err := a.net.BeginLocationUpdate(res.VictimIMSI)
	if err != nil {
		return res, fmt.Errorf("mitm: LAU request: %w", err)
	}
	step(StepLAURequest, "network issued RAND challenge")
	answer := a.victim.RespondAuth(rnd)
	step(StepAuthRelay, "challenge relayed to captive SIM, SRES replayed")
	if err := a.net.CompleteLocationUpdate(res.VictimIMSI, answer, fvt); err != nil {
		return res, fmt.Errorf("mitm: LAU accept: %w", err)
	}
	step(StepLAUAccept, "network now serves the FVT")

	// 9. Reveal the MSISDN: the FVT calls the attacker's number and
	// the caller ID (resolved from the HLR) discloses it.
	if err := fvt.PlaceCall(a.cfg.AttackerMSISDN); err != nil {
		return res, fmt.Errorf("mitm: reveal call: %w", err)
	}
	calls := a.attackerTerm.Calls()
	if len(calls) == 0 {
		return res, ErrNoRevealCall
	}
	res.VictimMSISDN = calls[len(calls)-1].FromMSISDN
	step(StepRevealMSISDN, "caller ID %s", res.VictimMSISDN)

	return res, nil
}

// probeCrack sends the attacker's own terminal a message through the
// legitimate cell, captures the resulting A5/1 bursts off the air, and
// recovers the session key from the known-plaintext paging burst with
// the configured Cracker — a one-session rehearsal of the passive
// attack, run against traffic the attacker is entitled to.
func (a *Attack) probeCrack() (kc uint64, elapsed time.Duration, err error) {
	// Listener callbacks can fire from any goroutine sending on these
	// ARFCNs (not just our own probe), so burst collection is locked.
	var (
		mu     sync.Mutex
		bursts []telecom.RadioBurst
	)
	cancels := make([]func(), 0, len(a.legitCell.ARFCNs))
	for _, arfcn := range a.legitCell.ARFCNs {
		cancels = append(cancels, a.net.Subscribe(arfcn, func(b telecom.RadioBurst) {
			mu.Lock()
			bursts = append(bursts, b)
			mu.Unlock()
		}))
	}
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	if _, err := a.net.SendSMS("PROBE", a.attackerTerm.MSISDN(), "a5/1 probe"); err != nil {
		return 0, 0, fmt.Errorf("sending probe SMS: %w", err)
	}
	mu.Lock()
	captured := append([]telecom.RadioBurst(nil), bursts...)
	mu.Unlock()
	for _, b := range captured {
		if b.Seq != 0 || !b.Encrypted {
			continue
		}
		ks, ok := b.PagingKeystream()
		if !ok {
			return 0, 0, fmt.Errorf("paging burst carries %d payload bytes, want %d", b.PayloadLen, telecom.PagingPlaintextLen)
		}
		start := time.Now()
		keys, errs := a.cfg.Cracker.RecoverBatch(context.Background(), []a51.Sample{{Keystream: ks[:], Frame: b.Frame}}, a.net.KeySpace())
		if errs[0] != nil {
			return 0, 0, errs[0]
		}
		return keys[0], time.Since(start), nil
	}
	return 0, 0, errProbeNoBurst
}

// errProbeNoBurst reports a probe that heard no usable traffic on the
// legitimate cell's channels — inconclusive rather than fatal.
var errProbeNoBurst = errors.New("no encrypted paging burst captured on legit cell ARFCNs")

// TearDown removes the jammer (the rogue cell stays registered in the
// simulated network, but releasing the victim re-attaches it to the
// legitimate cell and restores its service).
func (a *Attack) TearDown() error {
	if err := a.net.SetLTEJammed(a.legitCell.ID, false); err != nil {
		return err
	}
	return a.victim.Attach(a.legitCell)
}
