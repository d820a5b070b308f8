package exec

import (
	"context"
	"testing"

	"repro/internal/optimizer"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestTraceSpanParity: the partitioned run's trace must reconcile
// with the one-batch run's — same stage spans in plan order with
// identical record counts, and each partitioned stage's per-partition
// children summing to the stage totals.
func TestTraceSpanParity(t *testing.T) {
	phys := supportPhys(t, 96)
	seqExec, _ := NewExecutor(Config{})
	seq, err := seqExec.RunSequential(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	partExec, _ := NewExecutor(Config{Parallelism: 4, Partitions: 8})
	part, err := partExec.RunPipelined(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Trace == nil || part.Trace == nil {
		t.Fatal("runs returned no trace")
	}
	if seq.Trace.Kind != trace.KindQuery || part.Trace.Kind != trace.KindQuery {
		t.Fatalf("roots = %q/%q, want query spans", seq.Trace.Kind, part.Trace.Kind)
	}
	ss, ps := seq.Trace.Stages(), part.Trace.Stages()
	if len(ss) != len(phys) || len(ps) != len(phys) {
		t.Fatalf("stage spans = %d/%d, want %d (one per operator)", len(ss), len(ps), len(phys))
	}
	var sawPartitions bool
	for i := range ss {
		s, p := ss[i], ps[i]
		if s.OpID != p.OpID || s.OpIndex != i {
			t.Fatalf("stage %d identity mismatch: %q/%q", i, s.OpID, p.OpID)
		}
		if s.RecordsIn != p.RecordsIn || s.RecordsOut != p.RecordsOut {
			t.Errorf("stage %s counts diverge: sequential %d->%d, partitioned %d->%d",
				s.OpID, s.RecordsIn, s.RecordsOut, p.RecordsIn, p.RecordsOut)
		}
		if s.Selectivity != p.Selectivity {
			t.Errorf("stage %s selectivity diverges: %v vs %v", s.OpID, s.Selectivity, p.Selectivity)
		}
		parts := p.FindAll(trace.KindPartition)
		if len(parts) == 0 {
			continue
		}
		sawPartitions = true
		if len(parts) != 8 {
			t.Errorf("stage %s has %d partition spans, want 8", p.OpID, len(parts))
		}
		var in, out int
		var maxMS int64
		for _, ps := range parts {
			in += ps.RecordsIn
			out += ps.RecordsOut
			if ps.SimMS > maxMS {
				maxMS = ps.SimMS
			}
		}
		if in != p.RecordsIn || out != p.RecordsOut {
			t.Errorf("stage %s partition sums %d->%d != stage totals %d->%d",
				p.OpID, in, out, p.RecordsIn, p.RecordsOut)
		}
		// Concurrent partitions: the stage's wall contribution is its
		// slowest partition, never less.
		if p.SimMS < maxMS {
			t.Errorf("stage %s sim %d ms below slowest partition %d ms", p.OpID, p.SimMS, maxMS)
		}
	}
	if !sawPartitions {
		t.Error("partitioned trace has no partition spans")
	}
	if part.Trace.RecordsOut != len(part.Records) {
		t.Errorf("root out = %d, run produced %d records", part.Trace.RecordsOut, len(part.Records))
	}
	if part.Trace.SimMS != part.Elapsed.Milliseconds() {
		t.Errorf("root sim = %d ms, run elapsed %d ms", part.Trace.SimMS, part.Elapsed.Milliseconds())
	}
}

// TestExecuteTraceShape: an ExecuteContext result's trace is the query
// root, annotated with exactly one optimize span (its first child) and the
// plan attributes.
func TestExecuteTraceShape(t *testing.T) {
	e, err := NewExecutor(Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := workloads.SupportTriageChain(ndjsonSource(t, 24))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), chain, optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	root := res.Trace
	if root == nil || root.Kind != trace.KindQuery {
		t.Fatalf("result trace is not a query root: %+v", root)
	}
	opts := root.FindAll(trace.KindOptimize)
	if len(opts) != 1 {
		t.Fatalf("trace has %d optimize spans, want 1", len(opts))
	}
	if root.Children[0].Kind != trace.KindOptimize {
		t.Error("optimize span is not the first child")
	}
	if root.Attrs["policy"] == "" || root.Attrs["plan"] == "" {
		t.Errorf("root attrs missing policy/plan: %v", root.Attrs)
	}
	if root.SimMS != res.Elapsed.Milliseconds() {
		t.Errorf("root sim %d ms != result elapsed %d ms", root.SimMS, res.Elapsed.Milliseconds())
	}
}
