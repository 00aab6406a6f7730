package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// checkpointFiles reads a checkpoint directory's manifest, journal and
// snapshot bytes (nil for a missing file), for seeding the corpus.
func checkpointFiles(t testing.TB, dir string) (manifest, journal, snapshot []byte) {
	t.Helper()
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		return b
	}
	return read(manifestFile), read(journalFile), read(snapshotFile)
}

// FuzzOpen writes arbitrary manifest, journal and snapshot bytes into a
// checkpoint directory and resumes it. A resume reads files a crashed
// or tampered-with run left behind, so every input must either fail
// with an error or recover a state consistent with the caller's
// manifest; none may panic.
func FuzzOpen(f *testing.F) {
	m := testManifest()
	dir := f.TempDir()
	j, _, err := Open(dir, m, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []int{3, 0, 7} {
		if err := j.Append(s, payload(s)); err != nil {
			f.Fatal(err)
		}
	}
	mb, jb, _ := checkpointFiles(f, dir)
	f.Add(mb, jb, []byte(nil))
	f.Add(mb, jb[:len(jb)-5], []byte(nil)) // torn tail
	if err := j.Snapshot([]byte(`{"merged":true}`)); err != nil {
		f.Fatal(err)
	}
	if err := j.Append(9, payload(9)); err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	mb, jb, sb := checkpointFiles(f, dir)
	f.Add(mb, jb, sb)
	f.Add(mb, jb, sb[:len(sb)/2])
	f.Add([]byte("{"), []byte(nil), []byte(nil))

	f.Fuzz(func(t *testing.T, manifest, journal, snapshot []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{manifestFile: manifest, journalFile: journal, snapshotFile: snapshot} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got, readErr := ReadManifest(dir)
		j, st, err := Open(dir, m, Options{})
		if err != nil {
			return
		}
		defer j.Close()
		if readErr != nil || len(got.Diff(m)) > 0 {
			t.Fatalf("resumed over manifest %+v (read error %v)", got, readErr)
		}
		if len(st.Done) != m.NumShards {
			t.Fatalf("recovered %d done flags for %d shards", len(st.Done), m.NumShards)
		}
		done := 0
		for _, d := range st.Done {
			if d {
				done++
			}
		}
		if done != st.DoneCount {
			t.Fatalf("DoneCount %d, %d flags set", st.DoneCount, done)
		}
		for _, r := range st.Records {
			if r.Shard < 0 || r.Shard >= m.NumShards || !st.Done[r.Shard] {
				t.Fatalf("record for shard %d not marked done", r.Shard)
			}
		}
		if st.TruncatedBytes < 0 || st.TruncatedBytes > int64(len(journal)) {
			t.Fatalf("truncated %d of %d journal bytes", st.TruncatedBytes, len(journal))
		}
		// The recovered journal must take further appends.
		if err := j.Append(m.NumShards-1, payload(1)); err != nil {
			t.Fatalf("append after resume: %v", err)
		}
	})
}
