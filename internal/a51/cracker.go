package a51

import (
	"context"
	"fmt"
)

// Cracker recovers an A5/1 session key from an observed keystream
// prefix. It is the pluggable search backend behind the sniffer, the
// MitM rig and the attack scenarios: all of them speak this interface
// and stay agnostic of whether recovery is brute force, bitsliced or
// table-driven.
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

// Exhaustive is the brute-force backend: it enumerates the key space
// candidate by candidate. Workers > 1 (or 0, meaning GOMAXPROCS) fans
// the sweep out over goroutines with an atomic first-match handshake;
// Workers == 1 searches serially.
type Exhaustive struct {
	// Workers is the search parallelism: 0 means GOMAXPROCS, 1 serial.
	Workers int
}

var _ Cracker = Exhaustive{}

// Name implements Cracker.
func (e Exhaustive) Name() string {
	if e.Workers == 1 {
		return "exhaustive"
	}
	return "exhaustive-parallel"
}

// Recover implements Cracker.
func (e Exhaustive) Recover(ctx context.Context, keystream []byte, frame uint32, space KeySpace) (uint64, error) {
	if e.Workers != 1 {
		return RecoverKeyParallel(ctx, keystream, frame, space, e.Workers)
	}
	// Serial: run inline, polling ctx periodically so the Cracker
	// cancellation contract holds without goroutines.
	if len(keystream) < minSampleBytes {
		return 0, ErrBadKeystream
	}
	n, ok := space.Size()
	if !ok {
		return 0, ErrSpaceTooLarge
	}
	for i := uint64(0); i < n; i++ {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		key := space.Key(i)
		if matches(key, frame, keystream) {
			return key, nil
		}
	}
	return 0, ErrKeyNotFound
}

// NewCracker builds a backend by name — the switch the CLI flags and
// scenario configs share:
//
//	"exhaustive"          serial brute force
//	"parallel"            brute force over all cores
//	"bitsliced" (or "")   64-lane bitsliced search, the default
//	"table"               TMTO table built for space over the paging
//	                      frame classes (PagingFrames)
//
// workers bounds the parallelism of the backend (and of the table
// build); 0 means GOMAXPROCS.
func NewCracker(name string, space KeySpace, workers int) (Cracker, error) {
	switch name {
	case "exhaustive":
		return Exhaustive{Workers: 1}, nil
	case "parallel":
		return Exhaustive{Workers: workers}, nil
	case "bitsliced", "":
		return Bitsliced{Workers: workers}, nil
	case "table":
		return BuildTable(space, TableConfig{Workers: workers})
	}
	return nil, fmt.Errorf("a51: unknown cracker backend %q", name)
}
