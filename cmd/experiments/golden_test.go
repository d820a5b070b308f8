package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// Golden-file test for the full experiments output. Every figure the
// command prints is simulated-clock or a count, so the output is the
// same run to run — except E6's "enum time" and "prune time" columns,
// which time the optimizer on the host clock, and record IDs (`#N`),
// which number records in process-wide allocation order; both are
// masked here. The golden pins every figure of the paper's artifacts,
// including E1's Figure 6 runtime and cost. Regenerate with
// `go test ./cmd/experiments -run Golden -update`.

var update = flag.Bool("update", false, "rewrite golden files")

// e6Timing matches an E6 table row and captures everything before its
// two trailing host-timing cells.
var e6Timing = regexp.MustCompile(`(?m)^(\| \d+ \| \d+ \| \d+ \| \d+ \|) [^|]+ \| [^|]+ \|$`)

// recordID matches the allocation-order suffix of a record display.
var recordID = regexp.MustCompile(`#\d+\{`)

func TestGoldenExperiments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.Bytes())
	}
	got := e6Timing.ReplaceAll(stdout.Bytes(), []byte("$1 - | - |"))
	if bytes.Equal(got, stdout.Bytes()) {
		t.Fatal("no E6 timing row was masked: the table layout changed")
	}
	got = recordID.ReplaceAll(got, []byte("{"))
	path := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("experiments output drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
