// Command gsmsniff reproduces the Fig 5/Fig 6 demonstration: a
// 16-receiver passive rig camps on a cell's ARFCNs, services send
// verification codes to nearby victims over A5/1-encrypted GSM, and
// the sniffer cracks the session keys and prints Wireshark-style
// capture lines filtered by a display-filter expression.
//
// The key-recovery backend is pluggable: -backend selects the 64-lane
// bitsliced search (default) or the Kraken-style precomputed TMTO
// table; -table-file persists the table across runs so the
// precomputation is paid once.
//
// Usage:
//
//	gsmsniff [-receivers 16] [-victims 4] [-filter 'sms.text contains "code"']
//	         [-keybits 12] [-backend bitsliced|table]
//	         [-table-file kraken.tbl] [-chainlen 32]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"time"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/identity"
	"github.com/actfort/actfort/internal/obs"
	"github.com/actfort/actfort/internal/sniffer"
	"github.com/actfort/actfort/internal/telecom"
)

// prof flushes on every exit path, including fatal's os.Exit.
var prof *obs.Profiler

func main() {
	var (
		receivers  = flag.Int("receivers", 16, "receiver (C118) count")
		victims    = flag.Int("victims", 4, "victims in the cell")
		filterSrc  = flag.String("filter", `sms.text contains "code"`, "display filter")
		keyBits    = flag.Int("keybits", 12, "A5/1 session-key space bits")
		backend    = flag.String("backend", "bitsliced", "key-recovery backend: bitsliced|table")
		tableFile  = flag.String("table-file", "", "with -backend table: load the TMTO table from this file if it exists, else build and save it")
		chainLen   = flag.Int("chainlen", 0, "with -backend table: distinguished-point chain length (0 = default; rounded down to a power of two, then halved until the key space holds at least 8 chains and a chain packs into 32 bits, which at -keybits 24 caps it at 64)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	var err error
	if prof, err = obs.StartProfiler(*cpuProfile, *memProfile); err != nil {
		fatal(err)
	}
	defer stopProfiler()

	// telecom.NewNetwork silently substitutes its 16-bit default for
	// Bits <= 0, which would diverge from the space the cracker was
	// built for; reject out-of-range values up front.
	if *keyBits < 1 || *keyBits > 24 {
		fatal(fmt.Errorf("keybits must be in [1, 24], got %d", *keyBits))
	}

	f, err := sniffer.ParseFilter(*filterSrc)
	if err != nil {
		fatal(err)
	}

	space := a51.KeySpace{Base: 0xC118000000000000, Bits: *keyBits}
	netCfg := telecom.Config{KeySpace: space, Seed: 7}
	var cracker a51.Cracker
	if *backend == "table" {
		// The network schedules paging bursts on the CCCH frame
		// classes of the 51×26 COUNT schedule; a table precomputed
		// over telecom.PagingFrames() resolves every session by
		// lookup.
		table, err := obtainTable(space, *tableFile, *chainLen)
		if err != nil {
			fatal(err)
		}
		cracker = table
	} else {
		if cracker, err = a51.NewCracker(*backend, space); err != nil {
			fatal(err)
		}
	}

	net := telecom.NewNetwork(netCfg)
	cell, err := net.AddCell(telecom.Cell{
		ID: "cell-plaza", ARFCNs: []int{512, 513, 514, 515}, Cipher: telecom.CipherA51,
	})
	if err != nil {
		fatal(err)
	}

	gen := identity.NewGenerator(7)
	phones := make([]string, 0, *victims)
	for i := 0; i < *victims; i++ {
		p := gen.Persona(i)
		sub, err := net.Register(fmt.Sprintf("imsi-%03d", i), p.Phone)
		if err != nil {
			fatal(err)
		}
		term, err := net.NewTerminal(sub, telecom.RATGSM)
		if err != nil {
			fatal(err)
		}
		if err := term.Attach(cell); err != nil {
			fatal(err)
		}
		phones = append(phones, p.Phone)
	}

	rig := sniffer.New(net, sniffer.Config{MaxReceivers: *receivers, Filter: f, Cracker: cracker})
	defer rig.Stop()
	tune := cell.ARFCNs
	if len(tune) > *receivers {
		tune = tune[:*receivers]
	}
	if err := rig.Tune(tune...); err != nil {
		fatal(err)
	}
	fmt.Printf("rig: %d receivers on ARFCNs %v, filter %s, cracker %s\n\n",
		len(rig.Tuned()), rig.Tuned(), f, cracker.Name())

	// Traffic mix: OTPs from the paper's Fig 5 senders plus chatter.
	traffic := []struct{ from, text string }{
		{"Google", "G-845512 is your Google verification code."},
		{"Facebook", "Your Facebook confirmation code is 339201"},
		{"PayPal", "PayPal: your security code is 667788"},
		{"Mom", "dinner at eight?"},
		{"Alipay", "Alipay verification code: 901244. Valid for 5 minutes."},
	}
	for _, tr := range traffic {
		for _, phone := range phones {
			if _, err := net.SendSMS(tr.from, phone, tr.text); err != nil {
				fatal(err)
			}
		}
	}

	fmt.Println("captures (Fig 5 style):")
	for _, c := range rig.Captures() {
		fmt.Println(" ", c.WiresharkLine())
		fmt.Printf("    session %d on %s: Kc %#x recovered in %v\n",
			c.SessionID, c.CellID, c.Kc, c.CrackTime.Round(0))
	}
	st := rig.Stats()
	fmt.Printf("\nstats: %d bursts, %d sessions, %d decoded, %d/%d cracks (%d cache hits), %d filtered out\n",
		st.BurstsSeen, st.SessionsComplete, st.MessagesDecoded,
		st.CracksSucceeded, st.CracksAttempted, st.CrackCacheHits, st.FilteredOut)
}

// obtainTable loads a previously saved TMTO table when path exists and
// matches the requested key space, and otherwise builds one (saving it
// to path when given) — the "download the Kraken tables once" step.
func obtainTable(space a51.KeySpace, path string, chainLen int) (*a51.Table, error) {
	if path != "" {
		f, err := os.Open(path)
		switch {
		case err == nil:
			defer f.Close()
			table, err := a51.LoadTable(f)
			if err != nil {
				return nil, fmt.Errorf("loading table %s: %w", path, err)
			}
			if table.Space() != space {
				return nil, fmt.Errorf("table %s was built for base=%#x bits=%d, want bits=%d (delete it to rebuild)",
					path, table.Space().Base, table.Space().Bits, space.Bits)
			}
			// The network pages on the CCCH frame classes; a table
			// missing any of them would silently degrade uncovered
			// sessions to full sweeps.
			covered := make(map[uint32]bool, len(table.Frames()))
			for _, f := range table.Frames() {
				covered[f] = true
			}
			for _, f := range telecom.PagingFrames() {
				if !covered[f] {
					return nil, fmt.Errorf("table %s covers %d frames but paging frame class %d is missing (delete it to rebuild)",
						path, len(table.Frames()), f)
				}
			}
			fmt.Printf("table: loaded %s (%d frames)\n", path, len(table.Frames()))
			return table, nil
		case !errors.Is(err, fs.ErrNotExist):
			// Only a missing file warrants a rebuild; an unreadable
			// existing table must not be silently overwritten.
			return nil, fmt.Errorf("opening table %s: %w", path, err)
		}
	}
	start := time.Now()
	table, err := a51.BuildTable(space, a51.TableConfig{Frames: telecom.PagingFrames(), ChainLen: chainLen})
	if err != nil {
		return nil, err
	}
	fmt.Printf("table: built %d-bit space × %d frames in %v\n",
		space.Bits, len(table.Frames()), time.Since(start).Round(time.Millisecond))
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := table.Save(f); err != nil {
			return nil, fmt.Errorf("saving table %s: %w", path, err)
		}
		fmt.Printf("table: saved to %s\n", path)
	}
	return table, nil
}

// stopProfiler flushes any in-progress profiles; nil-safe and
// idempotent, so both the deferred call and fatal may run it.
func stopProfiler() {
	if err := prof.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "gsmsniff:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gsmsniff:", err)
	stopProfiler()
	os.Exit(1)
}
