package pz

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/trace"
)

// ticketContext registers an indexed file-backed support corpus.
func ticketContext(t *testing.T, n int, cfg Config) (*Context, *Dataset) {
	t.Helper()
	ctx, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tickets.ndjson")
	g := corpus.NewSupportGenerator(corpus.SupportConfig{NumTickets: n, UrgentRate: 0.3, Seed: 19})
	if _, err := corpus.SaveNDJSON(path, g, 19, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RegisterNDJSON("tickets", path); err != nil {
		t.Fatal(err)
	}
	ds, err := ctx.Dataset("tickets")
	if err != nil {
		t.Fatal(err)
	}
	return ctx, ds
}

func renderRecords(recs []*Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		s := ""
		for _, f := range r.Schema().FieldNames() {
			s += fmt.Sprintf("%s=%q;", f, r.GetString(f))
		}
		out[i] = s
	}
	return out
}

// TestPartitionedExecutionIdentical: the same pipeline over the same
// file-backed corpus yields byte-identical records sequentially
// (Parallelism 1), pipelined single-reader, and partition-parallel —
// through the public API knobs (Config.Partitions and WithPartitions).
func TestPartitionedExecutionIdentical(t *testing.T) {
	const n = 72
	run := func(cfg Config, partitions int) []string {
		ctx, ds := ticketContext(t, n, cfg)
		if partitions != 0 {
			ds = ds.WithPartitions(partitions)
		}
		res, err := ctx.Execute(ds.Filter("The ticket is urgent and needs immediate attention"), MaxQuality())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) == 0 {
			t.Fatal("run produced no records")
		}
		return renderRecords(res.Records)
	}
	want := run(Config{}, 0)                                   // one-batch run
	viaConfig := run(Config{Parallelism: 4, Partitions: 6}, 0) // context-wide fan-out
	viaDataset := run(Config{Parallelism: 4}, 6)               // per-pipeline fan-out
	for name, got := range map[string][]string{"Config.Partitions": viaConfig, "WithPartitions": viaDataset} {
		if len(got) != len(want) {
			t.Fatalf("%s: record counts differ: %d vs %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d differs:\nsequential:  %s\npartitioned: %s", name, i, want[i], got[i])
			}
		}
	}
}

// TestWithPartitionsValidation: negative fan-outs surface as builder
// errors at Execute, like every other builder misuse.
func TestWithPartitionsValidation(t *testing.T) {
	ctx, ds := ticketContext(t, 12, Config{})
	if _, err := ctx.Execute(ds.WithPartitions(-2), MaxQuality()); err == nil {
		t.Fatal("negative fan-out accepted")
	}
}

// TestOptimizerOptionsForResolvesPartitions: the serving layer's
// fingerprint options must mirror what ExecuteContext will resolve —
// dataset override first, context default second.
func TestOptimizerOptionsForResolvesPartitions(t *testing.T) {
	ctx, ds := ticketContext(t, 12, Config{Parallelism: 2, Partitions: 4})
	if o := ctx.OptimizerOptions(); o.Partitions != 4 || !o.Pipelined {
		t.Fatalf("context options = %+v, want partitions 4, pipelined", o)
	}
	if o := ctx.OptimizerOptionsFor(ds); o.Partitions != 4 {
		t.Fatalf("default dataset options = %+v, want partitions 4", o)
	}
	if o := ctx.OptimizerOptionsFor(ds.WithPartitions(8)); o.Partitions != 8 || !o.Pipelined {
		t.Fatalf("override options = %+v, want partitions 8, pipelined", o)
	}
	if o := ctx.OptimizerOptionsFor(ds.WithPartitions(1)); o.Partitions != 1 {
		t.Fatalf("opt-out options = %+v, want partitions 1", o)
	}
}

// TestFolderAndDocsPartition: a folder dataset and an in-memory documents
// dataset split like an indexed corpus. WithPartitions(4) runs four scan
// partitions, as the trace shows, and returns records byte-identical to
// WithPartitions(1)'s, at the same cost.
func TestFolderAndDocsPartition(t *testing.T) {
	docs := corpus.GenerateLegal(corpus.LegalConfig{NumContracts: 40, IndemnificationRate: 0.4, Seed: 5})
	const predicate = "The contract contains an indemnification clause"
	register := map[string]func(*Context) (Source, error){
		"folder": func(ctx *Context) (Source, error) {
			dir := filepath.Join(t.TempDir(), "contracts")
			if _, err := dataset.MaterializeCorpus("contracts", dir, docs); err != nil {
				return nil, err
			}
			return ctx.RegisterDir("contracts", dir)
		},
		"docs": func(ctx *Context) (Source, error) { return ctx.RegisterDocs("contracts", TextFile, docs) },
	}
	for name, reg := range register {
		run := func(parts int) *Result {
			ctx, err := NewContext(Config{Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reg(ctx); err != nil {
				t.Fatal(err)
			}
			ds, err := ctx.Dataset("contracts")
			if err != nil {
				t.Fatal(err)
			}
			res, err := ctx.Execute(ds.WithPartitions(parts).Filter(predicate), MaxQuality())
			if err != nil {
				t.Fatal(err)
			}
			scan := res.Trace.Stages()[0]
			if got := len(scan.FindAll(trace.KindPartition)); got != parts && (parts > 1 || got != 0) {
				t.Fatalf("%s: WithPartitions(%d) ran %d scan partitions", name, parts, got)
			}
			return res
		}
		one, four := run(1), run(4)
		want, got := renderRecords(one.Records), renderRecords(four.Records)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%s: 4 partitions gave %d records, 1 partition %d, or they differ", name, len(got), len(want))
		}
		if math.Abs(four.CostUSD-one.CostUSD) > 1e-9 {
			t.Fatalf("%s: 4 partitions cost $%v, 1 partition $%v", name, four.CostUSD, one.CostUSD)
		}
	}
}
