package exec

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// supportPhys resolves the support-triage workload (scan + LLM filter +
// convert) over an indexed file-backed corpus to its champion plan.
func supportPhys(t *testing.T, n int) []ops.Physical {
	t.Helper()
	chain, err := workloads.SupportTriageChain(ndjsonSource(t, n))
	if err != nil {
		t.Fatal(err)
	}
	phys, err := optimizer.ChampionPlan(chain)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(layoutOf(t, phys[0].(*ops.ScanExec), 8)); got < 2 {
		t.Fatalf("scan over an indexed NDJSON source splits %d ways, want a fan-out", got)
	}
	return phys
}

// layoutOf is the scan's partition layout for a fan-out of at most max.
func layoutOf(t *testing.T, scan *ops.ScanExec, max int) []int {
	t.Helper()
	layout, err := scan.Layout(max)
	if err != nil {
		t.Fatal(err)
	}
	return layout
}

// TestPartitionedScanParity is the engine-level acceptance check: the
// partition-parallel run (per-partition source+map pipelines, merged by
// seq tags) produces byte-identical records and matching per-operator
// stats totals versus the one-batch run, and — because partitions
// model independent shards — finishes faster on the simulated clock than
// the single-reader pipelined run.
func TestPartitionedScanParity(t *testing.T) {
	phys := supportPhys(t, 96)
	newExec := func(partitions int) *Executor {
		e, err := NewExecutor(Config{Parallelism: 4, Partitions: partitions})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	seq, err := newExec(0).RunSequential(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	single, err := newExec(1).RunPipelined(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	parted, err := newExec(8).RunPipelined(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Records) == 0 {
		t.Fatal("workload produced no records")
	}
	want, got := renderAll(seq.Records), renderAll(parted.Records)
	if len(want) != len(got) {
		t.Fatalf("record counts differ: sequential %d, partitioned %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("record %d differs:\nsequential:  %s\npartitioned: %s", i, want[i], got[i])
		}
	}
	assertSameStats(t, seq.Stats, parted.Stats)
	// Eight partition pipelines run concurrently, so the modeled
	// wall-clock must beat one pipeline over the same records.
	if parted.Elapsed >= single.Elapsed {
		t.Errorf("partitioned run not faster: single-reader %v, 8-way %v", single.Elapsed, parted.Elapsed)
	}
}

// TestPartitionedBarrierMerge: with a blocking stage (sort) downstream of
// the partitioned prefix, the barrier's seq-tag sort must reassemble
// exact dataset order from interleaved partition outputs.
func TestPartitionedBarrierMerge(t *testing.T) {
	src := ndjsonSource(t, 60)
	chain := []ops.Logical{
		&ops.Scan{Source: src},
		&ops.Filter{UDF: func(*record.Record) (bool, error) { return true, nil }, UDFName: "all"},
		&ops.Sort{Field: "filename", Descending: true},
		&ops.Limit{N: 10},
	}
	phys, err := optimizer.ChampionPlan(chain)
	if err != nil {
		t.Fatal(err)
	}
	seqExec, _ := NewExecutor(Config{})
	seq, err := seqExec.RunSequential(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	partExec, _ := NewExecutor(Config{Parallelism: 2, Partitions: 5})
	part, err := partExec.RunPipelined(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	want, got := renderAll(seq.Records), renderAll(part.Records)
	if len(want) != 10 || len(got) != 10 {
		t.Fatalf("limit produced %d/%d records, want 10", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("record %d differs after barrier:\nsequential:  %s\npartitioned: %s", i, want[i], got[i])
		}
	}
}

// TestPartitionPlanHintWins: a plan whose scan carries a fan-out stamp
// (as the optimizer leaves it for the serving plan cache) partitions even
// when the executor config doesn't ask for it — and Run streams it with
// overlapping stages instead of one batch.
func TestPartitionPlanHintWins(t *testing.T) {
	phys := supportPhys(t, 48)
	phys[0].(*ops.ScanExec).Parts = 4
	e, err := NewExecutor(Config{}) // Parallelism 1, Partitions 0
	if err != nil {
		t.Fatal(err)
	}
	if !e.pipelined(scanParts(phys)) {
		t.Fatal("plan-carried partition hint did not select overlapping stages")
	}
	res, err := e.Run(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	seqExec, _ := NewExecutor(Config{})
	seq, err := seqExec.RunSequential(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	want, got := renderAll(seq.Records), renderAll(res.Records)
	if len(want) != len(got) {
		t.Fatalf("record counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("record %d differs under plan-hinted partitioning", i)
		}
	}
}

// TestPartitionedMemorySource: partition fan-out requested over a memory
// source splits it like an indexed corpus, 8 ways at stride 1, and the
// partitioned run returns byte-identical records to the one-batch run.
func TestPartitionedMemorySource(t *testing.T) {
	phys, err := workloads.StreamPlan(24)
	if err != nil {
		t.Fatal(err)
	}
	if got := layoutOf(t, phys[0].(*ops.ScanExec), 8); len(got) != 8 {
		t.Fatalf("a 24-record memory source splits as %v, want 8 partitions", got)
	}
	partExec, _ := NewExecutor(Config{Parallelism: 4, Partitions: 8})
	res, err := partExec.RunPipelined(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Trace.Stages()[0].FindAll(trace.KindPartition)); got != 8 {
		t.Fatalf("the scan ran %d partitions, want 8", got)
	}
	seqExec, _ := NewExecutor(Config{Parallelism: 4})
	seq, err := seqExec.RunSequential(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	want, got := renderAll(seq.Records), renderAll(res.Records)
	if len(want) != len(got) {
		t.Fatalf("record counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("record %d differs under 8 partitions", i)
		}
	}
}

// TestPartitionedCancellation: canceling the caller context mid-run tears
// down every partition pipeline and reports cancellation.
func TestPartitionedCancellation(t *testing.T) {
	phys := supportPhys(t, 80)
	e, err := NewExecutor(Config{Parallelism: 2, Partitions: 4, StreamBatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the run starts: every stage must unwind
	if _, err := e.RunPipelined(ctx, phys); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPartitionedProgressTotals: per-stage progress events across
// partitions accumulate to the full record counts, monotonically.
func TestPartitionedProgressTotals(t *testing.T) {
	const n = 64
	src := ndjsonSource(t, n)
	phys, err := optimizer.ChampionPlan([]ops.Logical{&ops.Scan{Source: src}})
	if err != nil {
		t.Fatal(err)
	}
	lastRecords := -1
	monotonic := true
	e, err := NewExecutor(Config{Parallelism: 2, Partitions: 4, StreamBatchSize: 8,
		OnProgress: func(p Progress) {
			if p.OpIndex == 0 {
				if p.Records < lastRecords {
					monotonic = false
				}
				lastRecords = p.Records
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunPipelined(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != n {
		t.Fatalf("records = %d, want %d", len(res.Records), n)
	}
	if lastRecords != n {
		t.Fatalf("final scan progress reported %d records, want %d", lastRecords, n)
	}
	if !monotonic {
		t.Fatal("scan progress went backwards across partitions")
	}
}
