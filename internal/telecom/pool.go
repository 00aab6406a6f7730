package telecom

// This file is the pooled batch-encoding path: campaign-scale callers
// encode whole shards of sessions per call, and the per-session burst
// descriptor slices were the largest GC population of a
// million-subscriber run. A BurstBuffer owns that memory and recycles
// it call over call (and, through a sync.Pool, worker over worker, or
// send over send on the live path), so the steady-state encode
// allocates nothing.

import (
	"fmt"
	"sync"

	"github.com/actfort/actfort/internal/a51"
	"github.com/actfort/actfort/internal/gsmcodec"
)

// BurstBuffer recycles the burst descriptor memory of batch encoding.
// Acquire one with AcquireBurstBuffer, pass it to EncodeSMSBurstsInto
// as many times as useful (each call reuses the memory of the previous
// one), and Release it when done. The returned slice is overwritten by
// the next call on the same buffer; the bursts in it are values, so a
// consumer that copied them out (a listener, a sniffer slot) keeps its
// copies.
type BurstBuffer struct {
	bursts []RadioBurst
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
// the burst slices the buffer's encode calls returned.
func (b *BurstBuffer) Release() {
	b.reset()
	burstBufferPool.Put(b)
}

func (b *BurstBuffer) reset() {
	// Drop the IMSI/cell strings before truncating, so a pooled buffer
	// retains capacity, not the last shard's traffic. The lanes point
	// into b.bursts and keep nothing else alive.
	clear(b.bursts)
	b.bursts = b.bursts[:0]
	b.tpdu = b.tpdu[:0]
	b.kcs = b.kcs[:0]
	b.frames = b.frames[:0]
	b.lanes = b.lanes[:0]
}

// EncodeSMSBurstsInto encodes many sessions in one call: the shared
// TPDU is marshaled once per distinct Deliver, and every A5/1 burst
// across sessions is batched into 64-lane bitsliced encryptor passes
// (a51.EncryptBurstsBatch). It returns one flat burst trace in session
// order, byte-identical to encoding each session alone, with the
// descriptor memory taken from buf — the zero-allocation
// (steady state) path the campaign engine feeds whole shards through
// before handing the trace to sniffer.FeedBatch, and, as a batch of
// one, the encoder of Network.SendSMS. A5/0
// bursts travel as plaintext and A5/3 bursts go through the KASUMI
// stand-in, so mixed-cipher batches are fine; an unencodable TPDU
// fails the whole batch.
//
// The returned slice aliases buf (see BurstBuffer); each call
// overwrites the previous call's bursts.
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
		buf.bursts, cipher = appendSessionBursts(buf.bursts, &sessions[si], buf.tpdu)
		switch cipher {
		case CipherA51:
			for i := start; i < len(buf.bursts); i++ {
				buf.kcs = append(buf.kcs, sessions[si].Kc)
			}
		case CipherA53:
			for i := start; i < len(buf.bursts); i++ {
				xorBurstA53(sessions[si].Kc, buf.bursts[i].Frame, buf.bursts[i].Bytes())
			}
		}
	}
	// The lanes point into buf.bursts, so they are gathered only now
	// that the slice has stopped growing; buf.kcs holds one key per
	// A5/1 burst in the same order. One bitsliced pass per 64 lanes
	// XORs the keystream into the payloads in place.
	for i := range buf.bursts {
		if b := &buf.bursts[i]; b.Cipher == CipherA51 {
			buf.frames = append(buf.frames, b.Frame)
			buf.lanes = append(buf.lanes, b.Bytes())
		}
	}
	a51.EncryptBurstsBatch(buf.kcs, buf.frames, buf.lanes)
	return buf.bursts, nil
}
