package optimizer

import (
	"testing"

	"repro/internal/ops"
)

// TestClusterAwareTimeEstimates: a worker-pool size smaller than the
// partition fan-out caps the pipelined concurrency — each worker runs its
// partitions serially, so 8 partitions on 2 workers overlap only 2 at a
// time — and the enumerator stamps the topology onto the scan for the
// plan cache.
func TestClusterAwareTimeEstimates(t *testing.T) {
	chain := indexedChain(t, 64)
	parted, _, err := New(Options{Pipelined: true, Partitions: 8}).Optimize(chain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	clustered, _, err := New(Options{Pipelined: true, Partitions: 8, ClusterWorkers: 2}).Optimize(chain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := clustered.Ops[0].(*ops.ScanExec)
	if !ok || sc.Workers != 2 {
		t.Fatalf("optimizer did not stamp the worker pool onto the scan: %+v", clustered.Ops[0])
	}
	if got := sc.Partitions(); got != 8 {
		t.Fatalf("effective partitions = %d, want 8 (the pool caps concurrency, not the split)", got)
	}
	if got := sc.Concurrency(); got != 2 {
		t.Fatalf("effective concurrency = %d, want clamp to 2 workers", got)
	}
	if clustered.Time() <= parted.Time() {
		t.Errorf("2-worker estimate %.3fs not above 8-way in-process %.3fs",
			clustered.Time(), parted.Time())
	}
	if clustered.Cost() != parted.Cost() || clustered.Quality() != parted.Quality() {
		t.Errorf("cluster topology changed cost/quality: %v/%v vs %v/%v",
			clustered.Cost(), clustered.Quality(), parted.Cost(), parted.Quality())
	}
}

// TestClusterPoolLargerThanFanout: a pool wider than the fan-out changes
// nothing — concurrency is still bounded by the number of partitions.
func TestClusterPoolLargerThanFanout(t *testing.T) {
	chain := indexedChain(t, 64)
	plan, _, err := New(Options{Pipelined: true, Partitions: 4, ClusterWorkers: 16}).Optimize(chain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Ops[0].(*ops.ScanExec).Concurrency(); got != 4 {
		t.Errorf("effective concurrency = %d, want 4 (partitions bound a wide pool)", got)
	}
}

// TestFingerprintSeparatesClusterWorkers: the plan-cache key must change
// with the cluster topology, or a plan optimized for one pool size would
// serve queries targeting another.
func TestFingerprintSeparatesClusterWorkers(t *testing.T) {
	chain := indexedChain(t, 16)
	a := Fingerprint(chain, MaxQuality{}, Options{Pipelined: true, Partitions: 8})
	b := Fingerprint(chain, MaxQuality{}, Options{Pipelined: true, Partitions: 8, ClusterWorkers: 2})
	c := Fingerprint(chain, MaxQuality{}, Options{Pipelined: true, Partitions: 8, ClusterWorkers: 4})
	if a == b || b == c || a == c {
		t.Fatalf("fingerprints collide across cluster topologies: %s %s %s", a, b, c)
	}
}
