package telecom

// This file is the pooled batch-encoding path: campaign-scale callers
// encode whole shards of sessions per call, and the per-burst payload
// copies plus per-session descriptor slices were the largest GC
// population of a million-subscriber run. A BurstBuffer owns that
// memory and recycles it call over call (and, through a sync.Pool,
// worker over worker), so the steady-state encode allocates nothing
// but the occasional slab growth.

import (
	"fmt"
	"sync"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/gsmcodec"
	"github.com/actfort/actfort/internal/slab"
)

// BurstBuffer recycles the descriptor and payload memory of batch
// burst encoding. Acquire one with AcquireBurstBuffer, pass it to
// EncodeSMSBurstsInto as many times as useful (each call reuses the
// memory of the previous one), and Release it when done.
//
// Lifetime contract: the bursts returned by EncodeSMSBurstsInto alias
// the buffer's memory. They stay valid until the next
// EncodeSMSBurstsInto call on the same buffer (or Release), so the
// consumer — e.g. sniffer.FeedBatch, which copies what it keeps — must
// be done with them before the buffer is reused.
type BurstBuffer struct {
	bursts []RadioBurst
	slab   slab.Slab[byte]
	// marshal memoization and A5/1 lane-gather scratch.
	tpdu   []byte
	kcs    []uint64
	frames []uint32
	lanes  [][]byte
}

var burstBufferPool = sync.Pool{New: func() any { return new(BurstBuffer) }}

// AcquireBurstBuffer hands out a pooled buffer.
func AcquireBurstBuffer() *BurstBuffer { return burstBufferPool.Get().(*BurstBuffer) }

// Release returns the buffer to the pool. The caller must be done with
// every burst slice the buffer's encode calls returned.
func (b *BurstBuffer) Release() {
	b.reset()
	burstBufferPool.Put(b)
}

func (b *BurstBuffer) reset() {
	// Drop the descriptor references (IMSI/cell strings, payload slice
	// headers) before truncating, so a pooled buffer retains capacity,
	// not the last shard's traffic.
	clear(b.bursts)
	clear(b.lanes)
	b.bursts = b.bursts[:0]
	b.slab.Reset()
	b.tpdu = b.tpdu[:0]
	b.kcs = b.kcs[:0]
	b.frames = b.frames[:0]
	b.lanes = b.lanes[:0]
}

// grab carves an n-byte payload buffer from the slab arena (see
// internal/slab for the aliasing guarantees). Callers overwrite every
// byte of the carve — payloads are full copies — so stale slab
// contents never leak into bursts.
func (b *BurstBuffer) grab(n int) []byte { return b.slab.Grab(n) }

// EncodeSMSBurstsInto encodes many sessions in one call: the shared
// TPDU is marshaled once per distinct Deliver, and every A5/1 burst
// across sessions is batched into 64-lane bitsliced encryptor passes
// (a51.EncryptBurstsBatch). It returns one flat burst trace in session
// order, byte-identical to calling EncodeSMSBursts on each session,
// with all descriptor and payload memory carved from buf — the
// zero-allocation (steady state) path the campaign engine feeds whole
// shards through before handing the trace to sniffer.FeedBatch. A5/0
// bursts travel as plaintext and A5/3 bursts go through the KASUMI
// stand-in, so mixed-cipher batches are fine; an unencodable TPDU
// fails the whole batch.
//
// The returned slice aliases buf (see BurstBuffer); each call
// invalidates the previous call's bursts.
func EncodeSMSBurstsInto(sessions []SMSSession, buf *BurstBuffer) ([]RadioBurst, error) {
	buf.reset()
	var (
		lastDeliver gsmcodec.Deliver
		haveRaw     bool
	)
	for si := range sessions {
		if !haveRaw || sessions[si].Deliver != lastDeliver {
			raw, err := sessions[si].Deliver.Marshal()
			if err != nil {
				return nil, fmt.Errorf("telecom: batch session %d: %w", si, err)
			}
			// Keep the marshaled TPDU in the buffer so the memo byte
			// storage is recycled along with everything else.
			buf.tpdu = append(buf.tpdu[:0], raw...)
			lastDeliver, haveRaw = sessions[si].Deliver, true
		}
		start := len(buf.bursts)
		var cipher CipherMode
		buf.bursts, cipher = appendSessionBursts(buf.bursts, &sessions[si], buf.tpdu, buf.grab)
		switch cipher {
		case CipherA51:
			for i := start; i < len(buf.bursts); i++ {
				buf.kcs = append(buf.kcs, sessions[si].Kc)
				buf.frames = append(buf.frames, buf.bursts[i].Frame)
				buf.lanes = append(buf.lanes, buf.bursts[i].Payload)
			}
		case CipherA53:
			for i := start; i < len(buf.bursts); i++ {
				// In place inside the slab carve — no per-burst allocation.
				xorBurstA53(sessions[si].Kc, buf.bursts[i].Frame, buf.bursts[i].Payload)
			}
		}
	}
	// One bitsliced pass per 64 gathered bursts, XORing the keystream
	// into the burst payloads in place.
	a51.EncryptBurstsBatch(buf.kcs, buf.frames, buf.lanes)
	return buf.bursts, nil
}
