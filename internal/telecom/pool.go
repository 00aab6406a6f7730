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
	"math"
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
	// tpdu memoizes the last marshaled TPDU.
	tpdu []byte
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

// reset empties the buffer, keeping its capacity. Bursts hold no
// pointer, so truncating retains no traffic.
func (b *BurstBuffer) reset() {
	b.bursts = b.bursts[:0]
	b.tpdu = b.tpdu[:0]
}

// EncodeSMSBurstsInto encodes many sessions in one call: the shared
// TPDU is marshaled once per distinct Deliver, and every A5/1 burst
// across sessions is batched into 64-lane bitsliced encryptor passes
// (LaneBatch). It returns one flat burst trace in session order,
// byte-identical to encoding each session alone, with the descriptor
// memory taken from buf — the zero-allocation (steady state) path the
// campaign engine feeds whole shards through before handing the trace
// to sniffer.FeedBatch, and, as a batch of one, the encoder of
// Network.SendSMS. A5/0 bursts travel as plaintext and A5/3 bursts go
// through the KASUMI stand-in, so mixed-cipher batches are fine; an
// unencodable TPDU, or an IMSI longer than IMSIMax, fails the whole
// batch.
//
// The returned slice aliases buf (see BurstBuffer); each call
// overwrites the previous call's bursts.
func EncodeSMSBurstsInto(sessions []SMSSession, buf *BurstBuffer) ([]RadioBurst, error) {
	buf.reset()
	var (
		lastDeliver gsmcodec.Deliver
		haveRaw     bool
		lastCell    string
		cell        CellRef
		haveCell    bool
	)
	for si := range sessions {
		s := &sessions[si]
		if !haveRaw || s.Deliver != lastDeliver {
			raw, err := s.Deliver.Marshal()
			if err == nil && SessionBurstCount(len(raw)) > math.MaxUint8 {
				err = fmt.Errorf("TPDU of %d bytes takes more than %d bursts", len(raw), math.MaxUint8)
			}
			if err != nil {
				return nil, fmt.Errorf("telecom: batch session %d: %w", si, err)
			}
			// Keep the marshaled TPDU in the buffer so the memo byte
			// storage is recycled along with everything else.
			buf.tpdu = append(buf.tpdu[:0], raw...)
			lastDeliver, haveRaw = s.Deliver, true
		}
		if !haveCell || s.CellID != lastCell {
			ref, err := cellRefOf(s.CellID)
			if err != nil {
				return nil, fmt.Errorf("telecom: batch session %d: %w", si, err)
			}
			lastCell, cell, haveCell = s.CellID, ref, true
		}
		imsi, err := MakeIMSI(s.IMSI)
		if err != nil {
			return nil, fmt.Errorf("telecom: batch session %d: %w", si, err)
		}
		buf.bursts = appendSessionBursts(buf.bursts, s, imsi, cell, buf.tpdu)
	}
	// The cipher pass walks the finished trace session by session (each
	// session's paging burst announces its Total): A5/3 bursts are
	// ciphered alone, A5/1 bursts queue as lanes in trace order.
	var lanes LaneBatch
	for i, si := 0, 0; i < len(buf.bursts); si++ {
		session := buf.bursts[i : i+int(buf.bursts[i].Total)]
		kc := sessions[si].Kc
		for j := range session {
			switch b := &session[j]; b.Cipher {
			case CipherA51:
				lanes.Add(kc, b.Frame, b.Bytes())
			case CipherA53:
				xorBurstA53(kc, b.Frame, b.Bytes())
			}
		}
		i += len(session)
	}
	lanes.Flush()
	return buf.bursts, nil
}

// laneBatchSize is the lane count of one bitsliced a51 pass.
const laneBatchSize = 64

// LaneBatch queues A5/1 bursts for the 64-lane bitsliced encryptor in
// fixed arrays, so a caller holding one on its stack gathers no lane
// slices on the heap. Add runs a pass (a51.EncryptBurstsBatch) each
// time the batch fills and Flush runs the last, partial one, so the
// passes and lanes of one sequence of Adds and a Flush are those of one
// EncryptBurstsBatch over all its lanes, in the same order. XOR with
// the keystream both encrypts and decrypts.
type LaneBatch struct {
	n      int
	kcs    [laneBatchSize]uint64
	frames [laneBatchSize]uint32
	lanes  [laneBatchSize][]byte
}

// Add queues payload p, ciphered under kc on frame. p is XORed in
// place by the pass that takes it, at the latest on Flush, so it must
// stay put until then.
func (lb *LaneBatch) Add(kc uint64, frame uint32, p []byte) {
	lb.kcs[lb.n], lb.frames[lb.n], lb.lanes[lb.n] = kc, frame, p
	if lb.n++; lb.n == laneBatchSize {
		lb.Flush()
	}
}

// Flush runs a pass over the queued lanes, if any, and empties the batch.
func (lb *LaneBatch) Flush() {
	if lb.n > 0 {
		a51.EncryptBurstsBatch(lb.kcs[:lb.n], lb.frames[:lb.n], lb.lanes[:lb.n])
		lb.n = 0
	}
}
