package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutputs builds the actfort command and holds each
// deterministic query's stdout byte for byte to its file under
// testdata. After an intended change of output, regenerate a file by
// running the command, e.g. `go run ./cmd/actfort -measure >
// cmd/actfort/testdata/measure.txt`.
func TestGoldenOutputs(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "actfort")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"measure.txt", []string{"-measure"}},
		{"victims.txt", []string{"-victims"}},
		{"fortify.txt", []string{"-fortify"}},
		{"target-alipay-mobile-plans-3.txt", []string{"-target", "alipay/mobile", "-plans", "3"}},
		{"fig4.txt", []string{"-fig4", "-"}},
	} {
		t.Run(strings.TrimSuffix(tc.golden, ".txt"), func(t *testing.T) {
			got, err := exec.Command(bin, tc.args...).Output()
			if err != nil {
				t.Fatalf("actfort %s: %v", strings.Join(tc.args, " "), err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := range max(len(gl), len(wl)) {
					if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
						t.Fatalf("actfort %s differs from testdata/%s at line %d:\ngot:  %q\nwant: %q",
							strings.Join(tc.args, " "), tc.golden, i+1, lineAt(gl, i), lineAt(wl, i))
					}
				}
			}
		})
	}
}

// lineAt returns lines[i], or "" past the end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
