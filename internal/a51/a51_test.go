package a51

import (
	"bytes"
	"context"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// Published reference test vector (Briceno, Goldberg, Wagner 1999):
// Kc = 0x1223456789ABCDEF, frame 0x134.
const (
	katKey   = uint64(0x1223456789ABCDEF)
	katFrame = uint32(0x134)
	katDown  = "534eaa582fe8151ab6e1855a728c00"
	katUp    = "24fd35a35d5fb6526d32f906df1ac0"
)

func TestKnownAnswerVector(t *testing.T) {
	down, up := New(katKey, katFrame).KeystreamBurst()
	if got := hex.EncodeToString(down[:]); got != katDown {
		t.Errorf("downlink keystream = %s want %s", got, katDown)
	}
	if got := hex.EncodeToString(up[:]); got != katUp {
		t.Errorf("uplink keystream = %s want %s", got, katUp)
	}
}

func TestBurstTrailingBitsZero(t *testing.T) {
	down, up := New(katKey, katFrame).KeystreamBurst()
	if down[BurstBytes-1]&0x3F != 0 || up[BurstBytes-1]&0x3F != 0 {
		t.Error("trailing 6 bits of 114-bit burst must be zero")
	}
}

func TestEncryptBurstInvolution(t *testing.T) {
	payload := []byte("Your verification code is 845512")
	ct := EncryptBurst(katKey, 99, payload)
	if bytes.Equal(ct, payload) {
		t.Fatal("ciphertext equals plaintext")
	}
	pt := EncryptBurst(katKey, 99, ct)
	if !bytes.Equal(pt, payload) {
		t.Fatalf("decrypt(encrypt(x)) = %q want %q", pt, payload)
	}
}

func TestFrameNumberSeparatesKeystream(t *testing.T) {
	d1, _ := New(katKey, 1).KeystreamBurst()
	d2, _ := New(katKey, 2).KeystreamBurst()
	if d1 == d2 {
		t.Error("different frames produced identical keystream")
	}
}

func TestKeySeparatesKeystream(t *testing.T) {
	d1, _ := New(1, katFrame).KeystreamBurst()
	d2, _ := New(2, katFrame).KeystreamBurst()
	if d1 == d2 {
		t.Error("different keys produced identical keystream")
	}
}

func TestXORKeyStreamRoundTrip(t *testing.T) {
	f := func(key uint64, frame uint32, msg []byte) bool {
		frame &= 0x3FFFFF
		ct := make([]byte, len(msg))
		New(key, frame).XORKeyStream(ct, msg)
		pt := make([]byte, len(ct))
		New(key, frame).XORKeyStream(pt, ct)
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXORKeyStreamShortDstPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short dst did not panic")
		}
	}()
	New(1, 1).XORKeyStream(make([]byte, 1), make([]byte, 2))
}

func TestKeySpace(t *testing.T) {
	s := KeySpace{Base: 0xABCD000000000000, Bits: 8}
	if n, ok := s.Size(); !ok || n != 256 {
		t.Fatalf("Size = %d, %v want 256, true", n, ok)
	}
	if !s.Contains(s.Key(17)) {
		t.Error("space does not contain its own key")
	}
	if s.Contains(0x1111000000000000) {
		t.Error("space contains foreign key")
	}
	if s.Key(300) != s.Key(300%256) {
		t.Error("Key should wrap indexes into the space")
	}
	full := KeySpace{Bits: 64}
	if _, ok := full.Size(); ok {
		t.Error("64-bit space must report not-ok (unbounded)")
	}
	if !full.Contains(0xDEADBEEF) {
		t.Error("full space must contain everything")
	}
}

// recoverSerial is the serial exhaustive search, the reference every
// faster backend is checked against.
func recoverSerial(keystream []byte, frame uint32, space KeySpace) (uint64, error) {
	return Exhaustive{Workers: 1}.Recover(context.Background(), keystream, frame, space)
}

func TestRecoverKey(t *testing.T) {
	space := KeySpace{Base: 0x5A5A000000000000, Bits: 10}
	kc := space.Key(777)
	frame := uint32(0x2B)
	down, _ := New(kc, frame).KeystreamBurst()

	got, err := recoverSerial(down[:8], frame, space)
	if err != nil {
		t.Fatal(err)
	}
	if got != kc {
		t.Fatalf("serial Exhaustive recovered %#x want %#x", got, kc)
	}
}

func TestRecoverKeyWrongFrame(t *testing.T) {
	space := KeySpace{Bits: 8}
	down, _ := New(space.Key(3), 10).KeystreamBurst()
	if _, err := recoverSerial(down[:8], 11, space); err != ErrKeyNotFound {
		t.Fatalf("err = %v want ErrKeyNotFound", err)
	}
}

func TestRecoverKeyShortSample(t *testing.T) {
	if _, err := recoverSerial([]byte{1, 2}, 0, KeySpace{Bits: 4}); err != ErrBadKeystream {
		t.Fatalf("err = %v want ErrBadKeystream", err)
	}
}

func TestRecoverKeyFullSpaceRejected(t *testing.T) {
	if _, err := recoverSerial(make([]byte, 8), 0, KeySpace{Bits: 64}); err == nil {
		t.Fatal("full 64-bit space must be rejected for exhaustive search")
	}
}

func TestRecoverKeyParallel(t *testing.T) {
	space := KeySpace{Base: 0x77AA000000000000, Bits: 14}
	kc := space.Key(12345)
	frame := uint32(0x134)
	down, _ := New(kc, frame).KeystreamBurst()

	got, err := RecoverKeyParallel(context.Background(), down[:8], frame, space, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != kc {
		t.Fatalf("RecoverKeyParallel = %#x want %#x", got, kc)
	}
}

func TestRecoverKeyParallelCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A keystream no key generates, so only cancellation can end it.
	bogus := []byte{0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99, 0x88}
	_, err := RecoverKeyParallel(ctx, bogus, 0, KeySpace{Bits: 20}, 2)
	if err != context.Canceled {
		t.Fatalf("err = %v want context.Canceled", err)
	}
}

func TestRecoverKeyParallelNotFound(t *testing.T) {
	space := KeySpace{Bits: 6}
	outside := uint64(1) << 20 // key outside the 6-bit space
	down, _ := New(outside, 5).KeystreamBurst()
	_, err := RecoverKeyParallel(context.Background(), down[:8], 5, space, 3)
	if err != ErrKeyNotFound {
		t.Fatalf("err = %v want ErrKeyNotFound", err)
	}
}

func TestDeriveKeystream(t *testing.T) {
	plain := []byte("PAGING REQ 1") // fits in one 114-bit burst
	down, _ := New(katKey, 7).KeystreamBurst()
	ct := make([]byte, len(plain))
	for i := range plain {
		ct[i] = plain[i] ^ down[i]
	}
	ks, err := DeriveKeystream(ct, plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ks, down[:len(plain)]) {
		t.Error("derived keystream differs from true keystream")
	}
	if _, err := DeriveKeystream([]byte{1}, []byte{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

// End-to-end property: capture → derive keystream → recover key →
// decrypt a later frame of the same session.
func TestKnownPlaintextAttackEndToEnd(t *testing.T) {
	space := KeySpace{Base: 0x1122000000000000, Bits: 12}
	kc := space.Key(3000)

	// Frame 40 carries a predictable system message.
	sysMsg := []byte("SYSTEM INFORMATION TYPE 3 MSG")
	ct1 := EncryptBurst(kc, 40, sysMsg)
	ks, err := DeriveKeystream(ct1, sysMsg)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := recoverSerial(ks, 40, space)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != kc {
		t.Fatalf("recovered %#x want %#x", recovered, kc)
	}

	// Frame 41 carries the secret SMS; decrypt with recovered key.
	secret := []byte("Google code: 942117")
	ct2 := EncryptBurst(kc, 41, secret)
	if got := EncryptBurst(recovered, 41, ct2); !bytes.Equal(got, secret) {
		t.Fatalf("decrypted %q want %q", got, secret)
	}
}

func BenchmarkKeystreamBurst(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = New(katKey, uint32(i)&0x3FFFFF).KeystreamBurst()
	}
}

func BenchmarkRecoverKey12Bit(b *testing.B) {
	space := KeySpace{Base: 0x9900000000000000, Bits: 12}
	kc := space.Key(4095) // worst case: last key tried
	down, _ := New(kc, 8).KeystreamBurst()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := recoverSerial(down[:8], 8, space); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoverKeyParallel16Bit(b *testing.B) {
	space := KeySpace{Base: 0x9900000000000000, Bits: 16}
	kc := space.Key(65535)
	down, _ := New(kc, 8).KeystreamBurst()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RecoverKeyParallel(context.Background(), down[:8], 8, space, 0); err != nil {
			b.Fatal(err)
		}
	}
}
