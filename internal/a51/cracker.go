package a51

import (
	"context"
	"fmt"
)

// Sample is one key-recovery request: the keystream derived from a
// known-plaintext burst and the COUNT frame value it was ciphered
// under.
type Sample struct {
	Keystream []byte
	Frame     uint32
}

// Cracker recovers A5/1 session keys from observed keystream prefixes.
// It is the pluggable search backend behind the sniffer, the MitM rig
// and the attack scenarios: all of them speak this interface and stay
// agnostic of whether recovery is a bitsliced search or a table lookup.
//
// Implementations must be safe for concurrent use; the sniffer cracks
// sessions from multiple receiver callbacks.
type Cracker interface {
	// Name identifies the backend in stats and CLI output.
	Name() string
	// Identity describes everything about the backend that can change
	// a crack outcome. Campaign checkpoints pin it in the run manifest,
	// so a journal never resumes against a different backend.
	Identity() string
	// RecoverBatch searches space, for every sample, for the key whose
	// downlink keystream for the sample's frame starts with its
	// keystream (at least minSampleBytes bytes). keys[i] is meaningful
	// only when errs[i] is nil. errs[i] is ErrKeyNotFound when no key in
	// the space matches, ErrBadKeystream for a short sample, and
	// ctx.Err() for a sample left unresolved by cancellation. Each
	// result is the one a batch of that sample alone returns.
	RecoverBatch(ctx context.Context, samples []Sample, space KeySpace) (keys []uint64, errs []error)
}

// NewCracker builds a backend by name — the switch the CLI flags and
// scenario configs share:
//
//	"bitsliced" (or "")   64-lane bitsliced search, the default
//	"table"               TMTO table built for space over the paging
//	                      frame classes (PagingFrames)
//
// Both backends spread their work over GOMAXPROCS goroutines.
func NewCracker(name string, space KeySpace) (Cracker, error) {
	switch name {
	case "bitsliced", "":
		return Bitsliced{}, nil
	case "table":
		return BuildTable(space, TableConfig{})
	}
	return nil, fmt.Errorf("a51: unknown cracker backend %q", name)
}
