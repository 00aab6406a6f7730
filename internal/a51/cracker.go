package a51

import (
	"context"
	"fmt"
)

// Cracker recovers an A5/1 session key from an observed keystream
// prefix. It is the pluggable search backend behind the sniffer, the
// MitM rig and the attack scenarios: all of them speak this interface
// and stay agnostic of whether recovery is a bitsliced search or a
// table lookup.
//
// Implementations must be safe for concurrent use; the sniffer cracks
// sessions from multiple receiver callbacks.
type Cracker interface {
	// Name identifies the backend in stats and CLI output.
	Name() string
	// Recover searches space for the key whose downlink keystream for
	// frame starts with keystream (at least minSampleBytes bytes). It
	// returns ErrKeyNotFound when no key in the space matches,
	// ErrBadKeystream for short samples, and ctx.Err() on cancellation.
	Recover(ctx context.Context, keystream []byte, frame uint32, space KeySpace) (uint64, error)
}

// NewCracker builds a backend by name — the switch the CLI flags and
// scenario configs share:
//
//	"bitsliced" (or "")   64-lane bitsliced search, the default
//	"table"               TMTO table built for space over the paging
//	                      frame classes (PagingFrames)
//
// workers bounds the parallelism of the backend (and of the table
// build); 0 means GOMAXPROCS.
func NewCracker(name string, space KeySpace, workers int) (Cracker, error) {
	switch name {
	case "bitsliced", "":
		return Bitsliced{Workers: workers}, nil
	case "table":
		return BuildTable(space, TableConfig{Workers: workers})
	}
	return nil, fmt.Errorf("a51: unknown cracker backend %q", name)
}
