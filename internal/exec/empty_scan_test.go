package exec

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/schema"
)

// TestPipelinedEmptyScan: a zero-record scan streams as one empty batch.
// Every downstream stage still executes and records its stats row, the
// rows equal the one-batch run's, and the scan reports exactly one
// progress event — with or without a requested partition fan-out.
func TestPipelinedEmptyScan(t *testing.T) {
	mem, err := dataset.NewMemSource("empty", schema.TextFile, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain := []ops.Logical{
		&ops.Scan{Source: mem},
		&ops.Filter{Predicate: "The text reports an urgent problem"},
		&ops.Sort{Field: "filename"},
		&ops.Filter{UDFName: "keep-all", UDF: func(*record.Record) (bool, error) { return true, nil }},
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
	for _, parts := range []int{0, 8} {
		var scanEvents []Progress
		e, err := NewExecutor(Config{Parallelism: 4, Partitions: parts, OnProgress: func(p Progress) {
			if p.OpIndex == 0 {
				scanEvents = append(scanEvents, p)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := e.RunPipelined(context.Background(), phys)
		if err != nil {
			t.Fatalf("partitions=%d: %v", parts, err)
		}
		if len(pipe.Records) != 0 {
			t.Errorf("partitions=%d: %d records, want 0", parts, len(pipe.Records))
		}
		if rows := len(pipe.Stats.Ops()); rows != len(phys) {
			t.Errorf("partitions=%d: %d stats rows, want %d", parts, rows, len(phys))
		}
		assertSameStats(t, seq.Stats, pipe.Stats)
		if len(scanEvents) != 1 || scanEvents[0].Batches != 1 || scanEvents[0].Records != 0 {
			t.Errorf("partitions=%d: scan progress %+v, want one {Batches: 1, Records: 0}",
				parts, scanEvents)
		}
	}
}

// TestPipelinedRequiresScan: the pipelined run's source is the plan's
// scan, so a plan that starts anywhere else is rejected up front.
func TestPipelinedRequiresScan(t *testing.T) {
	phys, err := optimizer.ChampionPlan(demoChain(t))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewExecutor(Config{Parallelism: 4})
	_, err = e.RunPipelined(context.Background(), phys[1:])
	if err == nil || !strings.Contains(err.Error(), "must start with a scan") {
		t.Fatalf("plan without a scan: err = %v, want a must-start-with-a-scan error", err)
	}
}
