package telecom

import (
	"errors"
	"fmt"
	"sync"

	"github.com/actfort/actfort/internal/gsmcodec"
)

// RAT is the radio access technology a terminal is using.
type RAT int

const (
	// RATGSM is 2G.
	RATGSM RAT = iota + 1
	// RATLTE is 4G; SMS over LTE bypasses the sniffable GSM bus
	// unless the cell's LTE plane is jammed.
	RATLTE
)

// String names the RAT.
func (r RAT) String() string {
	switch r {
	case RATGSM:
		return "gsm"
	case RATLTE:
		return "lte"
	}
	return "rat(?)"
}

// ErrDetached reports an operation requiring cell attachment.
var ErrDetached = errors.New("telecom: terminal not attached to a cell")

// Terminal is a handset holding one SIM. A subscriber's traffic goes
// to whichever terminal most recently won a location update — normally
// their own phone, but the MitM substitutes the attacker's fake victim
// terminal.
type Terminal struct {
	net *Network
	sub *Subscriber

	mu    sync.Mutex
	cell  *Cell
	rat   RAT
	inbox []gsmcodec.Deliver
	calls []CallEvent
}

// NewTerminal binds a SIM to a handset. It starts detached.
func (n *Network) NewTerminal(sub *Subscriber, rat RAT) (*Terminal, error) {
	if sub == nil {
		return nil, fmt.Errorf("telecom: nil subscriber")
	}
	n.mu.Lock()
	if _, ok := n.subscribers[sub.IMSI]; !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSubscriber, sub.IMSI)
	}
	n.mu.Unlock()
	if rat != RATGSM && rat != RATLTE {
		return nil, fmt.Errorf("telecom: invalid RAT %d", rat)
	}
	return &Terminal{net: n, sub: sub, rat: rat}, nil
}

// NewCloneTerminal builds a handset that claims an IMSI without
// holding its SIM secret: the attacker's "fake victim terminal" (FVT
// in Fig 10). Its RespondAuth produces garbage — to win a location
// update it must relay the challenge to the real SIM, which is exactly
// the MitM's auth-relay step. Its MSISDN() is empty; caller ID is
// attached by the network from the HLR, which is how the attack
// reveals the victim's number.
func (n *Network) NewCloneTerminal(imsi string) (*Terminal, error) {
	n.mu.Lock()
	_, ok := n.subscribers[imsi]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSubscriber, imsi)
	}
	// Zero ki: the clone cannot answer challenges itself.
	return &Terminal{net: n, sub: &Subscriber{IMSI: imsi}, rat: RATGSM}, nil
}

// IMSI returns the SIM identity. Real phones disclose the IMSI to any
// base station that asks (identity request) — the IMSI-catcher step.
func (t *Terminal) IMSI() string { return t.sub.IMSI }

// MSISDN returns the phone number.
func (t *Terminal) MSISDN() string { return t.sub.MSISDN }

// RAT returns the radio technology currently in effect, accounting
// for LTE jamming on the attached cell (a jammed LTE cell forces GSM).
func (t *Terminal) RAT() RAT {
	cell, native := t.snapshot()
	if native == RATLTE && cell != nil && (!cell.LTE || t.net.IsLTEJammed(cell.ID)) {
		return RATGSM
	}
	return native
}

// snapshot returns the attached cell and the native RAT under the
// terminal lock. Safe to call with the network lock held (lock order
// is always Network.mu before Terminal.mu).
func (t *Terminal) snapshot() (*Cell, RAT) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cell, t.rat
}

// AttachTo camps the terminal on a cell. Real phones pick the
// strongest broadcast — including a rogue cell overpowering the
// legitimate one; the caller decides which cell "wins".
func (t *Terminal) AttachTo(cell *Cell) error {
	if cell == nil {
		return ErrUnknownCell
	}
	t.mu.Lock()
	t.cell = cell
	t.mu.Unlock()
	return nil
}

// Reselect camps the terminal on the strongest broadcasting cell, the
// way an idle phone behaves. A rogue cell that overpowers the
// legitimate one captures the terminal — the MitM's victim-capture
// step uses exactly this.
func (t *Terminal) Reselect() (*Cell, error) {
	cell, ok := t.net.StrongestCell()
	if !ok {
		return nil, ErrUnknownCell
	}
	if err := t.AttachTo(cell); err != nil {
		return nil, err
	}
	return cell, nil
}

// Attach performs the full legitimate attach: camp on the cell, then
// run the location-update authentication so the network serves this
// terminal.
func (t *Terminal) Attach(cell *Cell) error {
	if err := t.AttachTo(cell); err != nil {
		return err
	}
	rnd, err := t.net.BeginLocationUpdate(t.sub.IMSI)
	if err != nil {
		return err
	}
	return t.net.CompleteLocationUpdate(t.sub.IMSI, t.RespondAuth(rnd), t)
}

// RespondAuth lets the SIM answer an authentication challenge. Any
// base station the phone is camped on can trigger this — GSM has no
// network authentication, so a rogue cell can relay challenges (the
// MitM's auth-relay step).
func (t *Terminal) RespondAuth(rnd [16]byte) [4]byte {
	return sres(t.sub.ki, rnd)
}

// PlaceCall calls a number. The caller ID the callee sees is resolved
// by the network from the HLR using this terminal's IMSI — which is
// why the MitM's fake victim terminal can reveal the victim's MSISDN
// to the attacker without knowing it (Fig 10 "Call & Reveal MSISDN").
func (t *Terminal) PlaceCall(toMSISDN string) error {
	t.mu.Lock()
	attached := t.cell != nil
	t.mu.Unlock()
	if !attached {
		return ErrDetached
	}
	return t.net.CallFromIMSI(t.sub.IMSI, toMSISDN)
}

// receiveSMS appends to the inbox (called by the network core).
func (t *Terminal) receiveSMS(d gsmcodec.Deliver) {
	t.mu.Lock()
	t.inbox = append(t.inbox, d)
	t.mu.Unlock()
}

// receiveCall records an incoming call.
func (t *Terminal) receiveCall(e CallEvent) {
	t.mu.Lock()
	t.calls = append(t.calls, e)
	t.mu.Unlock()
}

// Inbox returns a copy of received messages, oldest first.
func (t *Terminal) Inbox() []gsmcodec.Deliver {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]gsmcodec.Deliver(nil), t.inbox...)
}

// Calls returns a copy of received call events.
func (t *Terminal) Calls() []CallEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]CallEvent(nil), t.calls...)
}

// LastSMS returns the most recent message, if any.
func (t *Terminal) LastSMS() (gsmcodec.Deliver, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.inbox) == 0 {
		return gsmcodec.Deliver{}, false
	}
	return t.inbox[len(t.inbox)-1], true
}
