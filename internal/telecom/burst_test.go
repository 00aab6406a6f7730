package telecom

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/actfort/actfort/internal/gsmcodec"
)

// TestRadioBurstLayout pins the burst as a flat value: no field, at any
// depth, is of a kind that holds a pointer, so a trace of bursts is
// memory the garbage collector never scans and copying a burst copies
// all of it; and a burst is at most 72 bytes.
func TestRadioBurstLayout(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk("RadioBurst", reflect.TypeFor[RadioBurst]())
	if size := unsafe.Sizeof(RadioBurst{}); size > 72 {
		t.Errorf("RadioBurst is %d bytes, want at most 72", size)
	}
}

// TestIMSITooLong: an IMSI that does not fit the burst's array is
// refused where it enters, by Register and by the encoder, and never
// truncated; one of IMSIMax characters round-trips.
func TestIMSITooLong(t *testing.T) {
	full := strings.Repeat("4", IMSIMax)
	long := full + "0"
	id, err := MakeIMSI(full)
	if err != nil || id.String() != full {
		t.Fatalf("MakeIMSI(%q) = %q, %v", full, id, err)
	}
	if _, err := MakeIMSI(long); !errors.Is(err, ErrIMSITooLong) {
		t.Fatalf("MakeIMSI(%q) error %v, want ErrIMSITooLong", long, err)
	}

	n := NewNetwork(DefaultConfig())
	if _, err := n.Register(long, "+8613800000001"); !errors.Is(err, ErrIMSITooLong) {
		t.Fatalf("Register of a %d-character IMSI: error %v, want ErrIMSITooLong", len(long), err)
	}
	if _, err := n.Register(full, "+8613800000001"); err != nil {
		t.Fatalf("Register of a %d-character IMSI: %v", len(full), err)
	}

	session := func(imsi string) SMSSession {
		return SMSSession{
			ARFCN: 512, CellID: "imsi-cell", SessionID: 1, Cipher: CipherA51, Kc: 0x1234, IMSI: imsi,
			Deliver: gsmcodec.Deliver{Originator: "Svc", Timestamp: time.Date(2021, 4, 19, 12, 0, 0, 0, time.UTC), Text: "code 1"},
		}
	}
	buf := AcquireBurstBuffer()
	defer buf.Release()
	bursts, err := EncodeSMSBurstsInto([]SMSSession{session(full), session(long)}, buf)
	if !errors.Is(err, ErrIMSITooLong) || bursts != nil {
		t.Fatalf("encoding a %d-character IMSI: %d bursts, error %v; want none and ErrIMSITooLong", len(long), len(bursts), err)
	}
	bursts, err = EncodeSMSBurstsInto([]SMSSession{session(full)}, buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bursts {
		if b.IMSI.String() != full || b.Cell.ID() != "imsi-cell" {
			t.Fatalf("burst %d carries IMSI %q in cell %q, want %q in imsi-cell", b.Seq, b.IMSI, b.Cell.ID(), full)
		}
	}
}
