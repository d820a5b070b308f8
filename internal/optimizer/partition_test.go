package optimizer

import (
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/ops"
)

// indexedChain builds scan(file-backed indexed corpus) -> filter.
func indexedChain(t *testing.T, n int) []ops.Logical {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tickets.ndjson")
	g := corpus.NewSupportGenerator(corpus.SupportConfig{NumTickets: n, UrgentRate: 0.3, Seed: 13})
	if _, err := corpus.SaveNDJSON(path, g, 13, nil); err != nil {
		t.Fatal(err)
	}
	src, err := dataset.NewNDJSONSource("tickets", path)
	if err != nil {
		t.Fatal(err)
	}
	return []ops.Logical{
		&ops.Scan{Source: src},
		&ops.Filter{Predicate: "The ticket is urgent"},
	}
}

// TestPartitionAwareTimeEstimates: optimizing for a partition fan-out
// stamps the scan, shortens the pipelined runtime estimate by roughly the
// fan-out, and leaves cost and quality untouched — partitioning moves
// work, it does not change it.
func TestPartitionAwareTimeEstimates(t *testing.T) {
	chain := indexedChain(t, 64)
	base, _, err := New(Options{Pipelined: true}).Optimize(chain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	parted, _, err := New(Options{Pipelined: true, Partitions: 8}).Optimize(chain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := parted.Ops[0].(*ops.ScanExec)
	if !ok || sc.Parts != 8 {
		t.Fatalf("optimizer did not stamp the fan-out onto the scan: %+v", parted.Ops[0])
	}
	if sc.Partitions() != 8 {
		t.Fatalf("effective partitions = %d, want 8", sc.Partitions())
	}
	if parted.Time() >= base.Time() {
		t.Errorf("partitioned estimate %.3fs not below single-reader %.3fs", parted.Time(), base.Time())
	}
	// The whole chain is one streamable prefix, so the estimate should
	// shrink by about the fan-out.
	if ratio := base.Time() / parted.Time(); ratio < 4 {
		t.Errorf("8-way fan-out shortened the estimate only %.1fx", ratio)
	}
	if parted.Cost() != base.Cost() || parted.Quality() != base.Quality() {
		t.Errorf("partitioning changed cost/quality: %v/%v vs %v/%v",
			parted.Cost(), parted.Quality(), base.Cost(), base.Quality())
	}
}

// TestPartitionEstimateClampsToSource: asking for more partitions than
// the corpus has checkpoints clamps to what the source can provide, and
// an unpartitionable source keeps the single-reader estimate.
func TestPartitionEstimateClampsToSource(t *testing.T) {
	chain := indexedChain(t, 10)
	plan, _, err := New(Options{Pipelined: true, Partitions: 64}).Optimize(chain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Ops[0].(*ops.ScanExec).Partitions(); got != 10 {
		t.Errorf("effective partitions = %d, want clamp to 10 checkpoints", got)
	}
}

// TestFingerprintSeparatesPartitions: the plan-cache key must change with
// the partition fan-out, or a cached single-reader plan would serve a
// query that asked for shards (and vice versa).
func TestFingerprintSeparatesPartitions(t *testing.T) {
	chain := indexedChain(t, 16)
	a := Fingerprint(chain, MaxQuality{}, Options{Pipelined: true})
	b := Fingerprint(chain, MaxQuality{}, Options{Pipelined: true, Partitions: 8})
	c := Fingerprint(chain, MaxQuality{}, Options{Pipelined: true, Partitions: 4})
	if a == b || b == c || a == c {
		t.Fatalf("fingerprints collide across fan-outs: %s %s %s", a, b, c)
	}
}
