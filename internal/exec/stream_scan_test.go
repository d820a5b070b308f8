package exec

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/workloads"
)

// ndjsonSource spills a support corpus to disk and opens it file-backed.
func ndjsonSource(t testing.TB, n int) *dataset.NDJSONSource {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tickets.ndjson")
	g := corpus.NewSupportGenerator(corpus.SupportConfig{NumTickets: n, UrgentRate: 0.3, Seed: 17})
	if _, err := corpus.SaveNDJSON(path, g, 17, nil); err != nil {
		t.Fatal(err)
	}
	src, err := dataset.NewNDJSONSource("tickets", path)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestStreamingScanParity runs the support-triage workload over a
// file-backed NDJSON corpus on both run shapes. The pipelined run's
// source stage streams the file incrementally (ScanExec.Stream over a
// dataset.RecordIterator); its outputs and per-operator statistics must
// match the one-batch run's materializing scan exactly.
func TestStreamingScanParity(t *testing.T) {
	src := ndjsonSource(t, 90)
	chain, err := workloads.SupportTriageChain(src)
	if err != nil {
		t.Fatal(err)
	}
	phys, err := optimizer.ChampionPlan(chain)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := phys[0].(*ops.ScanExec).Source.(dataset.RecordIterator); !ok {
		t.Fatal("NDJSON source must implement dataset.RecordIterator")
	}

	newExec := func() *Executor {
		e, err := NewExecutor(Config{Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	seq, err := newExec().RunSequential(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := newExec().RunPipelined(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Records) == 0 {
		t.Fatal("workload produced no records")
	}
	a, b := renderAll(seq.Records), renderAll(pipe.Records)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\nsequential: %s\npipelined:  %s", i, a[i], b[i])
		}
	}
	// Engine-invariant totals; CostUSD gets an epsilon because per-call
	// dollar amounts sum in worker-completion order, and float addition
	// is not associative.
	sa, sb := seq.Stats.Ops(), pipe.Stats.Ops()
	if len(sa) != len(sb) {
		t.Fatalf("operator count differs: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].OpID != sb[i].OpID || sa[i].InRecords != sb[i].InRecords ||
			sa[i].OutRecords != sb[i].OutRecords || sa[i].LLMCalls != sb[i].LLMCalls ||
			sa[i].InputTokens != sb[i].InputTokens || sa[i].OutputTokens != sb[i].OutputTokens {
			t.Errorf("op %d stats differ:\nsequential: %+v\npipelined:  %+v", i, sa[i], sb[i])
		}
		if d := sa[i].CostUSD - sb[i].CostUSD; d > 1e-9 || d < -1e-9 {
			t.Errorf("op %d cost differs: %v vs %v", i, sa[i].CostUSD, sb[i].CostUSD)
		}
	}
}

// TestStreamingScanEmitsIncrementally asserts the file-backed scan
// actually streams: with 64 records and batch size 8, the source stage
// must report several batches, not one materialized slice.
func TestStreamingScanEmitsIncrementally(t *testing.T) {
	src := ndjsonSource(t, 64)
	phys, err := optimizer.ChampionPlan([]ops.Logical{&ops.Scan{Source: src}})
	if err != nil {
		t.Fatal(err)
	}
	scanBatches := 0
	e, err := NewExecutor(Config{Parallelism: 8, StreamBatchSize: 8, OnProgress: func(p Progress) {
		if p.OpIndex == 0 {
			scanBatches = p.Batches
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunPipelined(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 64 {
		t.Fatalf("records = %d, want 64", len(res.Records))
	}
	if scanBatches != 8 {
		t.Fatalf("scan reported %d batches, want 8 (64 records / batch size 8)", scanBatches)
	}
}

// TestStreamingScanDropAllStats checks stats parity on the streaming
// path when a downstream stage drops every record: each stage must still
// record a row matching the one-batch run's.
func TestStreamingScanDropAllStats(t *testing.T) {
	src := ndjsonSource(t, 8)
	chain := []ops.Logical{
		&ops.Scan{Source: src},
		&ops.Filter{UDF: func(*record.Record) (bool, error) { return false, nil }, UDFName: "none"},
		&ops.Project{Fields: []string{"filename"}},
	}
	phys, err := optimizer.ChampionPlan(chain)
	if err != nil {
		t.Fatal(err)
	}
	newExec := func() *Executor {
		e, err := NewExecutor(Config{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	seq, err := newExec().RunSequential(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := newExec().RunPipelined(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Records) != 0 || len(pipe.Records) != 0 {
		t.Fatalf("drop-all kept %d/%d records", len(seq.Records), len(pipe.Records))
	}
	assertSameStats(t, seq.Stats, pipe.Stats)
}

// TestStreamHugeBatchAllocatesByData runs a file-backed scan with a
// batch size far above the corpus: the scan's batch buffer must be sized
// by the records it will actually hold, not preallocated at the batch
// size (which, at 1<<22 pointers, is 32 MB per buffer).
func TestStreamHugeBatchAllocatesByData(t *testing.T) {
	src := ndjsonSource(t, 10)
	e, err := NewExecutor(Config{Parallelism: 2, StreamBatchSize: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := e.Run(context.Background(), []ops.Physical{&ops.ScanExec{Source: src}})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 10 {
		t.Fatalf("got %d records, want 10", len(res.Records))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
		t.Fatalf("a 10-record scan allocated %d bytes", grew)
	}
}
