package teleport_test

import (
	"bytes"
	"os"
	"testing"

	"teleport/internal/bench"
)

// experiments_run.txt is the behaviour contract every refactor leans on: the
// full figure suite at the committed scale, exactly as `go run ./cmd/ddcsim
// fig` prints it. Virtual time is the scientific result, so the comparison is
// byte for byte; a deliberate change to a figure re-records the file in the
// same commit (go run ./cmd/ddcsim fig > experiments_run.txt).
func TestExperimentsRunMatchesCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure at the committed scale (~20 s)")
	}
	want, err := os.ReadFile("experiments_run.txt")
	if err != nil {
		t.Fatal(err)
	}
	opts := bench.Defaults()
	var got bytes.Buffer
	got.WriteString(opts.Header())
	tabs, err := bench.RunAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs {
		tab.Fprint(&got)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("experiments_run.txt differs at line %d:\n  got  %s\n  want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("experiments_run.txt differs in length: got %d lines, want %d", len(gl), len(wl))
}
