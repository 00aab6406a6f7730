package a51

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"runtime"
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
	ct := encryptBurst(katKey, 99, payload)
	if bytes.Equal(ct, payload) {
		t.Fatal("ciphertext equals plaintext")
	}
	pt := encryptBurst(katKey, 99, ct)
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

// recoverSerial is the brute-force reference every backend is checked
// against: one scalar matches call per key of the space, in key order,
// under the Cracker error contract.
func recoverSerial(keystream []byte, frame uint32, space KeySpace) (uint64, error) {
	if len(keystream) < minSampleBytes {
		return 0, ErrBadKeystream
	}
	n, ok := space.Size()
	if !ok {
		return 0, ErrSpaceTooLarge
	}
	for i := uint64(0); i < n; i++ {
		if key := space.Key(i); matches(key, frame, keystream) {
			return key, nil
		}
	}
	return 0, ErrKeyNotFound
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
		t.Fatalf("recoverSerial recovered %#x want %#x", got, kc)
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
		t.Fatal("full 64-bit space must be rejected for brute-force search")
	}
}

// End-to-end property: capture → derive keystream → recover key →
// decrypt a later frame of the same session.
func TestKnownPlaintextAttackEndToEnd(t *testing.T) {
	space := KeySpace{Base: 0x1122000000000000, Bits: 12}
	kc := space.Key(3000)

	// Frame 40 carries a predictable system message.
	sysMsg := []byte("SYSTEM INFORMATION TYPE 3 MSG")
	ct1 := encryptBurst(kc, 40, sysMsg)
	ks := make([]byte, len(ct1))
	for i := range ct1 {
		ks[i] = ct1[i] ^ sysMsg[i]
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
	ct2 := encryptBurst(kc, 41, secret)
	if got := encryptBurst(recovered, 41, ct2); !bytes.Equal(got, secret) {
		t.Fatalf("decrypted %q want %q", got, secret)
	}
}

func BenchmarkKeystreamBurst(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = New(katKey, uint32(i)&0x3FFFFF).KeystreamBurst()
	}
}

// BenchmarkSearchKeyspace is the scalar-versus-bitsliced search cost:
// the brute-force reference (one scalar matches per key) against the
// 64-lane Bitsliced backend, both on one core (GOMAXPROCS 1), over the
// whole space (the key is the last one tried).
func BenchmarkSearchKeyspace(b *testing.B) {
	for _, bits := range []int{8, 12, 16} {
		space := KeySpace{Base: 0x9900000000000000, Bits: bits}
		n, _ := space.Size()
		kc := space.Key(n - 1)
		down, _ := New(kc, 8).KeystreamBurst()
		for _, search := range []struct {
			name string
			run  func() (uint64, error)
		}{
			{"scalar", func() (uint64, error) { return recoverSerial(down[:8], 8, space) }},
			{"bitsliced", func() (uint64, error) {
				return recoverOne(context.Background(), Bitsliced{}, down[:8], 8, space)
			}},
		} {
			b.Run(fmt.Sprintf("bits=%d/search=%s", bits, search.name), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if got, err := search.run(); err != nil || got != kc {
						b.Fatalf("got %#x, %v; want %#x", got, err, kc)
					}
				}
			})
		}
	}
}
