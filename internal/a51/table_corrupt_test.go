package a51

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"
)

// savedTable builds a small real table and returns its serialized form.
func savedTable(t testing.TB) (*Table, []byte) {
	t.Helper()
	return savedTableBits(t, 8)
}

// savedTableBits is savedTable over a bits-wide key space.
func savedTableBits(t testing.TB, bits int) (*Table, []byte) {
	t.Helper()
	space := KeySpace{Base: 0xC118000000000000, Bits: bits}
	table, err := BuildTable(space, TableConfig{Frames: FrameRange(2)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := table.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return table, buf.Bytes()
}

func TestTableSaveLoadByteStable(t *testing.T) {
	table, raw := savedTable(t)
	got, err := LoadTable(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Identity() != table.Identity() {
		t.Fatalf("identity drifted: %s != %s", got.Identity(), table.Identity())
	}
	// Save is deterministic (sorted maps), so a byte-equal re-save is a
	// deep-equality check over every chain and overflow entry.
	var again bytes.Buffer
	if err := got.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("reloaded table re-saves differently")
	}
}

// TestLoadTableTruncationMatrix cuts the file at every byte offset:
// each prefix must fail cleanly, never panic or return a table.
func TestLoadTableTruncationMatrix(t *testing.T) {
	_, raw := savedTable(t)
	for cut := 0; cut < len(raw); cut++ {
		if _, err := LoadTable(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at byte %d/%d accepted", cut, len(raw))
		}
	}
}

// TestLoadTableBitFlipMatrix flips single bits across the file: the
// magic check, length prefix validation or CRC32C must catch each one.
func TestLoadTableBitFlipMatrix(t *testing.T) {
	_, raw := savedTable(t)
	for off := 0; off < len(raw); off += 3 {
		mut := bytes.Clone(raw)
		mut[off] ^= 1 << (off % 8)
		if _, err := LoadTable(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at byte %d accepted", off)
		}
	}
}

func TestLoadTableRejectsV1(t *testing.T) {
	_, raw := savedTable(t)
	mut := bytes.Clone(raw)
	copy(mut, tableMagicV1[:])
	_, err := LoadTable(bytes.NewReader(mut))
	if err == nil || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("v1 magic: %v", err)
	}
}

func TestLoadTableRejectsWrongMagic(t *testing.T) {
	if _, err := LoadTable(bytes.NewReader([]byte("NOTATMTOFILE"))); err == nil {
		t.Fatal("junk magic accepted")
	}
}

func TestLoadTableRejectsImplausibleLength(t *testing.T) {
	_, raw := savedTable(t)
	mut := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(mut[8:], maxTableBody+1)
	_, err := LoadTable(bytes.NewReader(mut))
	if !errors.Is(err, ErrTableCorrupt) {
		t.Fatalf("oversized length: %v", err)
	}
}

// seal wraps a body in the v2 framing with a correct CRC, so structural
// tests exercise the field validators rather than the checksum.
func seal(body []byte) []byte {
	out := make([]byte, 0, len(body)+20)
	out = append(out, tableMagic[:]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, tableCRC))
}

// tinyBody hand-assembles a minimal valid body (bits=8, chainLen=16,
// one frame, one endpoint holding one chain, one overflow fingerprint
// holding one key) that mutators below bend out of shape one field at
// a time. Every endpoint in ends carries the same chain and every
// fingerprint in fps the same key.
type tinyBody struct {
	base            uint64
	bits            uint32
	chainLen        uint64
	frames          []uint32
	ends            []uint64
	nchains         uint32
	start           uint64
	length          uint32
	fps             []uint64
	nkeys           uint32
	key             uint64
	trailing        []byte
	skipOverflowKey bool
}

func validTiny() tinyBody {
	return tinyBody{
		base: 0xC118000000000000, bits: 8, chainLen: 16,
		frames: []uint32{0},
		ends:   []uint64{16}, nchains: 1, start: 2, length: 3,
		fps: []uint64{5}, nkeys: 1, key: 7,
	}
}

func (b tinyBody) bytes() []byte {
	var buf bytes.Buffer
	u64 := func(v uint64) { binary.Write(&buf, binary.LittleEndian, v) }
	u32 := func(v uint32) { binary.Write(&buf, binary.LittleEndian, v) }
	u64(b.base)
	u32(b.bits)
	u64(b.chainLen)
	u32(uint32(len(b.frames)))
	for _, f := range b.frames {
		u32(f)
		u32(uint32(len(b.ends)))
		for _, end := range b.ends {
			u64(end)
			u32(b.nchains)
			u64(b.start)
			u32(b.length)
		}
		u32(uint32(len(b.fps)))
		for _, fp := range b.fps {
			u64(fp)
			u32(b.nkeys)
			if !b.skipOverflowKey {
				u64(b.key)
			}
		}
	}
	buf.Write(b.trailing)
	return buf.Bytes()
}

// tinyMutations bend validTiny one field at a time; each must fail
// with ErrTableCorrupt naming the field, allocating no more than 1 MB
// on the way (a 24-bit, chainLen-1 index would take 64 MB per frame).
var tinyMutations = []struct {
	name string
	mut  func(*tinyBody)
	want string
}{
	{"bits zero", func(b *tinyBody) { b.bits = 0 }, "geometry"},
	{"bits too wide", func(b *tinyBody) { b.bits = 30 }, "geometry"},
	{"chainLen not power of two", func(b *tinyBody) { b.chainLen = 12 }, "geometry"},
	{"chainLen zero", func(b *tinyBody) { b.chainLen = 0 }, "geometry"},
	{"endpoint outside space", func(b *tinyBody) { b.ends = []uint64{256} }, "endpoint"},
	{"endpoint not distinguished", func(b *tinyBody) { b.ends = []uint64{1} }, "not a distinguished point"},
	{"endpoints descending", func(b *tinyBody) { b.ends = []uint64{32, 16} }, "endpoints not strictly ascending"},
	{"endpoint listed twice", func(b *tinyBody) { b.ends = []uint64{16, 16} }, "endpoints not strictly ascending"},
	{"endpoint without chains", func(b *tinyBody) { b.nchains = 0 }, "no chains"},
	{"chain start outside space", func(b *tinyBody) { b.start = 1 << 20 }, "bounds"},
	{"chain length zero", func(b *tinyBody) { b.length = 0 }, "bounds"},
	{"chain length beyond walk", func(b *tinyBody) { b.length = 1 << 30 }, "bounds"},
	{"fingerprint too wide", func(b *tinyBody) { b.fps = []uint64{1 << 40} }, "fingerprint"},
	{"fingerprints descending", func(b *tinyBody) { b.fps = []uint64{9, 5} }, "fingerprints not strictly ascending"},
	{"fingerprint listed twice", func(b *tinyBody) { b.fps = []uint64{5, 5} }, "fingerprints not strictly ascending"},
	{"fingerprint without keys", func(b *tinyBody) { b.nkeys = 0 }, "no keys"},
	{"overflow key outside space", func(b *tinyBody) { b.key = 300 }, "outside"},
	{"duplicate frame", func(b *tinyBody) { b.frames = []uint32{0, 0} }, "twice"},
	{"chain count exceeds body", func(b *tinyBody) { b.nchains = 1 << 30 }, "exceeds remaining"},
	{"key count exceeds body", func(b *tinyBody) { b.nkeys = 1 << 30 }, "exceeds remaining"},
	{"trailing garbage", func(b *tinyBody) { b.trailing = []byte{0xEE} }, "trailing"},
	{"body truncated mid-record", func(b *tinyBody) { b.skipOverflowKey = true }, "exceeds remaining"},
	{"chain refs wider than 32 bits", func(b *tinyBody) { b.bits, b.chainLen = 24, 128 }, "invalid geometry"},
	{"endpoint index out of proportion", func(b *tinyBody) { b.bits, b.chainLen = 24, 1 }, "out of proportion"},
}

func TestLoadTableFieldValidationMatrix(t *testing.T) {
	// The baselines load and re-save to the same bytes: every endpoint's
	// chain and every fingerprint's key survives the load.
	wide := validTiny()
	wide.ends, wide.fps = []uint64{0, 16, 32}, []uint64{5, 9}
	for _, b := range []tinyBody{validTiny(), wide} {
		in := seal(b.bytes())
		table, err := LoadTable(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("baseline tiny body rejected: %v", err)
		}
		var out bytes.Buffer
		if err := table.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("baseline tiny body (%d endpoints) re-saves differently", len(b.ends))
		}
	}
	for _, tc := range tinyMutations {
		t.Run(tc.name, func(t *testing.T) {
			b := validTiny()
			tc.mut(&b)
			in := seal(b.bytes())
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := LoadTable(bytes.NewReader(in))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrTableCorrupt) {
				t.Fatalf("err = %v, want ErrTableCorrupt", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %q does not mention %q", err, tc.want)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Fatalf("a %d-byte file allocated %d bytes", len(in), grew)
			}
		})
	}
}

// TestLoadTableDoesNotTrustLength pins that a header declaring the
// largest plausible body costs no allocation of that size before the
// bytes arrive.
func TestLoadTableDoesNotTrustLength(t *testing.T) {
	in := binary.LittleEndian.AppendUint64(bytes.Clone(tableMagic[:]), maxTableBody)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadTable(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTableCorrupt) {
		t.Fatalf("err = %v, want ErrTableCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a %d-byte file allocated %d bytes", len(in), grew)
	}
}

// FuzzLoadTable feeds arbitrary bytes to LoadTable, both as a whole
// file and sealed as a body with a valid CRC, so mutations reach the
// field validators instead of stopping at the checksum. Every input
// must fail with an error or load a table whose Save output reloads
// and re-saves byte-identically; none may panic.
func FuzzLoadTable(f *testing.F) {
	// A 4-bit table keeps the seed near half a kilobyte: the fuzzer
	// minimizes every new-coverage input, and minimizing a multi-
	// kilobyte table would use up a short fuzz run.
	_, raw := savedTableBits(f, 4)
	f.Add(raw)
	f.Add(raw[16 : len(raw)-4]) // the body alone, sealed below
	v1 := bytes.Clone(raw)
	copy(v1, tableMagicV1[:])
	f.Add(v1)
	f.Add([]byte("NOTATMTOFILE"))
	huge := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(huge[8:], maxTableBody+1)
	f.Add(huge)
	f.Add(validTiny().bytes())
	for _, tc := range tinyMutations {
		b := validTiny()
		tc.mut(&b)
		f.Add(b.bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, seal(data)} {
			table, err := LoadTable(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var first, second bytes.Buffer
			if err := table.Save(&first); err != nil {
				t.Fatal(err)
			}
			again, err := LoadTable(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("Save output of a loaded table does not reload: %v", err)
			}
			if err := again.Save(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatal("reloaded table re-saves differently")
			}
		}
	})
}

func TestTableIdentityDistinguishesGeometry(t *testing.T) {
	space := KeySpace{Base: 0xC118000000000000, Bits: 8}
	a, err := BuildTable(space, TableConfig{Frames: FrameRange(2)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildTable(space, TableConfig{Frames: FrameRange(3)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Identity() == b.Identity() {
		t.Fatal("tables with different frame coverage share an identity")
	}
	if a.Identity() != a.Identity() {
		t.Fatal("identity not stable")
	}
}
