package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/actfort/actfort/internal/faultinject"
)

func testManifest() Manifest {
	return Manifest{
		FormatVersion:      FormatVersion,
		PopulationSeed:     42,
		PopulationSize:     4096,
		ShardSize:          256,
		LeakFraction:       0.35,
		EnrollmentScale:    1,
		FingerprintVersion: 2,
		ScenarioHash:       "abc123",
		TableIdentity:      "table/bits=12",
		NumShards:          16,
		ShardLo:            0,
		ShardHi:            16,
	}
}

func payload(shard int) []byte {
	return []byte(fmt.Sprintf(`{"shard":%d,"victims":%d}`, shard, shard*7))
}

// openFresh opens dir and fails the test on error.
func openFresh(t *testing.T, dir string, m Manifest, opts Options) (*Journal, *State) {
	t.Helper()
	j, st, err := Open(dir, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, st
}

func TestJournalAppendAndResume(t *testing.T) {
	dir := t.TempDir()
	j, st := openFresh(t, dir, testManifest(), Options{})
	if st.DoneCount != 0 || st.Snapshot != nil {
		t.Fatalf("fresh state: %+v", st)
	}
	for _, s := range []int{3, 0, 7} {
		if err := j.Append(s, payload(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, st2 := openFresh(t, dir, testManifest(), Options{})
	defer j2.Close()
	if st2.DoneCount != 3 || !st2.Done[3] || !st2.Done[0] || !st2.Done[7] {
		t.Fatalf("resumed state: %+v", st2)
	}
	if len(st2.Records) != 3 || st2.Records[0].Shard != 3 || !bytes.Equal(st2.Records[2].Payload, payload(7)) {
		t.Fatalf("records: %+v", st2.Records)
	}
	if st2.TruncatedBytes != 0 {
		t.Fatalf("clean journal reported %d torn bytes", st2.TruncatedBytes)
	}
}

// TestTornTailTruncated pins the kill-9 signature: a frame cut at
// every possible byte offset must resume to exactly the records before
// it, with the tail truncated from the file.
func TestTornTailTruncated(t *testing.T) {
	// Build a reference journal with 2 complete frames + measure them.
	ref := t.TempDir()
	j, _ := openFresh(t, ref, testManifest(), Options{})
	if err := j.Append(1, payload(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(2, payload(2)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	full, err := os.ReadFile(filepath.Join(ref, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	frame1 := len(appendFrame(nil, 1, payload(1)))

	for cut := frame1 + 1; cut < len(full); cut++ {
		dir := t.TempDir()
		j0, _ := openFresh(t, dir, testManifest(), Options{})
		j0.Close()
		if err := os.WriteFile(filepath.Join(dir, journalFile), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j1, st := openFresh(t, dir, testManifest(), Options{})
		j1.Close()
		if len(st.Records) != 1 || st.Records[0].Shard != 1 {
			t.Fatalf("cut %d: records %+v", cut, st.Records)
		}
		if st.TruncatedBytes != int64(cut-frame1) {
			t.Fatalf("cut %d: truncated %d want %d", cut, st.TruncatedBytes, cut-frame1)
		}
		if fi, _ := os.Stat(filepath.Join(dir, journalFile)); fi.Size() != int64(frame1) {
			t.Fatalf("cut %d: torn tail left on disk (%d bytes)", cut, fi.Size())
		}
	}
}

// TestCorruptFrameStopsScan pins bit-flip handling: a corrupted byte
// anywhere in a frame fails its CRC and drops it plus everything after.
func TestCorruptFrameStopsScan(t *testing.T) {
	dir := t.TempDir()
	j, _ := openFresh(t, dir, testManifest(), Options{})
	for s := 0; s < 3; s++ {
		if err := j.Append(s, payload(s)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	path := filepath.Join(dir, journalFile)
	data, _ := os.ReadFile(path)
	frame0 := len(appendFrame(nil, 0, payload(0)))
	data[frame0+8] ^= 0x40 // flip a bit inside frame 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, st := openFresh(t, dir, testManifest(), Options{})
	j2.Close()
	if len(st.Records) != 1 || st.Records[0].Shard != 0 {
		t.Fatalf("records after corruption: %+v", st.Records)
	}
}

func TestManifestMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	j, _ := openFresh(t, dir, testManifest(), Options{})
	j.Close()

	cases := map[string]func(*Manifest){
		"seed":     func(m *Manifest) { m.PopulationSeed = 43 },
		"size":     func(m *Manifest) { m.PopulationSize = 8192 },
		"scenario": func(m *Manifest) { m.ScenarioHash = "zzz" },
		"table":    func(m *Manifest) { m.TableIdentity = "bitsliced" },
		"fpv":      func(m *Manifest) { m.FingerprintVersion = 3 },
		"range":    func(m *Manifest) { m.ShardLo, m.ShardHi = 8, 16 },
	}
	for name, mutate := range cases {
		m := testManifest()
		mutate(&m)
		if _, _, err := Open(dir, m, Options{}); !errors.Is(err, ErrManifestMismatch) {
			t.Errorf("%s: changed manifest accepted (err = %v)", name, err)
		}
	}
	// The identical manifest still opens.
	j2, _ := openFresh(t, dir, testManifest(), Options{})
	j2.Close()
}

func TestSnapshotFoldsJournal(t *testing.T) {
	dir := t.TempDir()
	j, _ := openFresh(t, dir, testManifest(), Options{SnapshotEvery: 2})
	if err := j.Append(4, payload(4)); err != nil {
		t.Fatal(err)
	}
	if j.Due() {
		t.Fatal("Due after 1 of 2 appends")
	}
	if err := j.Append(5, payload(5)); err != nil {
		t.Fatal(err)
	}
	if !j.Due() {
		t.Fatal("not Due after 2 appends")
	}
	merged := []byte(`{"merged":true}`)
	if err := j.Snapshot(merged); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(filepath.Join(dir, journalFile)); fi.Size() != 0 {
		t.Fatalf("journal not truncated after snapshot: %d bytes", fi.Size())
	}
	if err := j.Append(6, payload(6)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, st := openFresh(t, dir, testManifest(), Options{})
	j2.Close()
	if !bytes.Equal(st.Snapshot, merged) {
		t.Fatalf("snapshot payload = %q", st.Snapshot)
	}
	if st.DoneCount != 3 || !st.Done[4] || !st.Done[5] || !st.Done[6] {
		t.Fatalf("state: %+v", st)
	}
	if len(st.Records) != 1 || st.Records[0].Shard != 6 {
		t.Fatalf("post-snapshot records: %+v", st.Records)
	}
}

// TestCrashMatrix drives every instrumented crash point and verifies
// the directory resumes to exactly the pre-crash journaled set.
func TestCrashMatrix(t *testing.T) {
	for _, point := range faultinject.Points() {
		t.Run(string(point), func(t *testing.T) {
			dir := t.TempDir()
			inj, err := faultinject.New(faultinject.Config{Crash: map[faultinject.Point]int{point: 1}})
			if err != nil {
				t.Fatal(err)
			}
			j, _ := openFresh(t, dir, testManifest(), Options{SnapshotEvery: 2, Fault: inj})
			crashed := false
			var wantDone []int
			for s := 0; s < 6 && !crashed; s++ {
				if err := j.Append(s, payload(s)); err != nil {
					if !errors.Is(err, faultinject.ErrCrash) {
						t.Fatal(err)
					}
					crashed = true
					break
				}
				wantDone = append(wantDone, s)
				if j.Due() {
					if err := j.Snapshot([]byte(fmt.Sprintf(`{"upTo":%d}`, s))); err != nil {
						if !errors.Is(err, faultinject.ErrCrash) {
							t.Fatal(err)
						}
						crashed = true
					}
				}
			}
			j.Close()
			if !crashed {
				t.Fatalf("crash point %s never fired", point)
			}

			j2, st := openFresh(t, dir, testManifest(), Options{})
			j2.Close()
			if st.DoneCount != len(wantDone) {
				t.Fatalf("resumed DoneCount = %d want %d (done %v)", st.DoneCount, len(wantDone), st.Done)
			}
			for _, s := range wantDone {
				if !st.Done[s] {
					t.Errorf("shard %d lost across crash", s)
				}
			}
			// The directory must be fully usable after recovery.
			if err := j2Reopen(dir, len(wantDone)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// j2Reopen appends one more record post-recovery and verifies it
// round-trips — the "recovered directory keeps working" check.
func j2Reopen(dir string, doneCount int) error {
	j, st, err := Open(dir, testManifest(), Options{})
	if err != nil {
		return err
	}
	if st.DoneCount != doneCount {
		return fmt.Errorf("reopen DoneCount = %d want %d", st.DoneCount, doneCount)
	}
	if err := j.Append(15, payload(15)); err != nil {
		return err
	}
	if err := j.Close(); err != nil {
		return err
	}
	_, st2, err := Open(dir, testManifest(), Options{})
	if err != nil {
		return err
	}
	if !st2.Done[15] {
		return fmt.Errorf("post-recovery append lost")
	}
	return nil
}

func TestCorruptSnapshotRefusedLoudly(t *testing.T) {
	dir := t.TempDir()
	j, _ := openFresh(t, dir, testManifest(), Options{SnapshotEvery: 1})
	if err := j.Append(0, payload(0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot([]byte("state")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	path := filepath.Join(dir, snapshotFile)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, testManifest(), Options{}); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("corrupt snapshot opened: %v", err)
	}
}

func TestResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, _ := openFresh(t, dir, testManifest(), Options{})
	defer j.Close()
	if _, err := ReadResult(dir); err == nil {
		t.Fatal("missing result read succeeded")
	}
	if err := j.WriteResult([]byte(`{"final":1}`)); err != nil {
		t.Fatal(err)
	}
	b, err := ReadResult(dir)
	if err != nil || !bytes.Equal(b, []byte(`{"final":1}`)) {
		t.Fatalf("ReadResult = %q, %v", b, err)
	}
	m, err := ReadManifest(dir)
	if err != nil || m != testManifest() {
		t.Fatalf("ReadManifest = %+v, %v", m, err)
	}
}

func TestOpenValidatesRange(t *testing.T) {
	m := testManifest()
	m.ShardLo, m.ShardHi = 8, 4
	if _, _, err := Open(t.TempDir(), m, Options{}); err == nil {
		t.Error("inverted range accepted")
	}
	m = testManifest()
	m.NumShards = 0
	if _, _, err := Open(t.TempDir(), m, Options{}); err == nil {
		t.Error("zero shards accepted")
	}
}

func TestAppendValidatesShard(t *testing.T) {
	j, _ := openFresh(t, t.TempDir(), testManifest(), Options{})
	defer j.Close()
	if err := j.Append(16, nil); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := j.Append(-1, nil); err == nil {
		t.Error("negative shard accepted")
	}
}
