package exec

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/schema"
)

// cascadeParityPredicates pairs every corpus domain with a predicate whose
// gold labels the domain's generator embeds — the filters the cascade is
// built to accelerate.
var cascadeParityPredicates = map[string]string{
	corpus.DomainBiomed:     "The papers are about colorectal cancer",
	corpus.DomainLegal:      "The contract contains an indemnification clause",
	corpus.DomainRealEstate: "The listing describes a modern home",
	corpus.DomainSupport:    "The ticket is urgent and needs immediate attention",
	corpus.DomainFinance:    "The filing reports a profitable fiscal year",
}

func domainSource(t *testing.T, domain string, n int, seed int64) dataset.Source {
	t.Helper()
	g, err := corpus.NewGenerator(domain, n, -1, seed)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	src, err := dataset.NewDocsSource(domain, schema.TextFile, docs)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// recordKeys canonicalizes an output for byte-level comparison: filename
// and full text, in output order.
func recordKeys(recs []*record.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.GetString("filename") + "\x00" + r.Text()
	}
	return out
}

// sidecarSource writes a domain corpus with its partition index and
// embedding sidecar and opens it: the corpus shape the optimizer
// calibrates cascades on.
func sidecarSource(t *testing.T, domain string, n int, seed int64) *dataset.NDJSONSource {
	t.Helper()
	g, err := corpus.NewGenerator(domain, n, -1, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), domain+".ndjson")
	if _, err := corpus.SaveNDJSON(path, g, seed, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := corpus.EmbedNDJSON(path, llm.EmbedDim, llm.EmbedVector); err != nil {
		t.Fatal(err)
	}
	src, err := dataset.NewNDJSONSource(domain, path)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestCascadeShapeParityProperty is the cascade harness's anchor
// property: one calibrated cascade, the operator the optimizer builds,
// keeps a byte-identical record sequence at the same cost and tier flow
// on every run shape (one batch per stage, streamed batches with
// overlapping stages, and partition pipelines sharing the one operator
// concurrently), across every corpus domain and three generator seeds. At
// parallelism 1 an operator's simulated time is the sum of its calls'
// latencies however the input is batched, so there the cascade's time
// and each tier's agree too; at parallelism 4 the tiers' concurrent
// paths run under -race in CI.
func TestCascadeShapeParityProperty(t *testing.T) {
	for domain, pred := range cascadeParityPredicates {
		for _, seed := range []int64{1, 17, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", domain, seed), func(t *testing.T) {
				src := sidecarSource(t, domain, 64, seed)
				chain := []ops.Logical{&ops.Scan{Source: src}, &ops.Filter{Predicate: pred}}
				calExec, err := NewExecutor(Config{})
				if err != nil {
					t.Fatal(err)
				}
				cal, err := optimizer.CalibrateCascade(chain, calExec.NewCtx())
				if err != nil {
					t.Fatal(err)
				}
				if cal == nil {
					t.Fatal("calibration declined the corpus")
				}
				scan := &ops.ScanExec{Source: src}
				if got := len(layoutOf(t, scan, 4)); got < 2 {
					t.Fatalf("scan splits %d ways, want a partition fan-out", got)
				}
				plan := []ops.Physical{scan, cal.Candidates[0]}

				var want *Result
				for _, shape := range []struct {
					name string
					cfg  Config
					run  func(*Executor, context.Context, []ops.Physical) (*Result, error)
				}{
					{"one-batch/p1", Config{Parallelism: 1}, (*Executor).RunSequential},
					{"pipelined/p1", Config{Parallelism: 1, StreamBatchSize: 8}, (*Executor).RunPipelined},
					{"partitioned/p1", Config{Parallelism: 1, Partitions: 4, StreamBatchSize: 8}, (*Executor).RunPipelined},
					{"one-batch/p4", Config{Parallelism: 4}, (*Executor).RunSequential},
					{"pipelined/p4", Config{Parallelism: 4, StreamBatchSize: 8}, (*Executor).RunPipelined},
					{"partitioned/p4", Config{Parallelism: 4, Partitions: 4, StreamBatchSize: 8}, (*Executor).RunPipelined},
				} {
					e, err := NewExecutor(shape.cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := shape.run(e, context.Background(), plan)
					if err != nil {
						t.Fatalf("%s: %v", shape.name, err)
					}
					if want == nil {
						want = got
						tiers := cascadeStats(t, got).Tiers
						if len(got.Records) == 0 || len(tiers) != 3 || tiers[0].Dropped == 0 || tiers[1].In == 0 {
							t.Fatalf("fixture is degenerate: %d records kept, tiers %+v", len(got.Records), tiers)
						}
						continue
					}
					if fmt.Sprint(recordKeys(got.Records)) != fmt.Sprint(recordKeys(want.Records)) {
						t.Fatalf("%s: cascade output diverges from one-batch/p1\n%s: %d records\none-batch/p1: %d records",
							shape.name, shape.name, len(got.Records), len(want.Records))
					}
					// Per-call dollar amounts sum in arrival order, so totals
					// can differ by ULPs across shapes.
					if d := got.CostUSD - want.CostUSD; d > 1e-9 || d < -1e-9 {
						t.Errorf("%s: cost %v, one-batch/p1 cost %v", shape.name, got.CostUSD, want.CostUSD)
					}
					a, b := cascadeStats(t, want), cascadeStats(t, got)
					sameTime := shape.cfg.Parallelism == 1
					if sameTime && a.Time != b.Time {
						t.Errorf("%s: cascade sim time %v, one-batch/p1 %v", shape.name, b.Time, a.Time)
					}
					for i := range a.Tiers {
						x, y := a.Tiers[i], b.Tiers[i]
						if d := x.CostUSD - y.CostUSD; d > 1e-9 || d < -1e-9 {
							t.Errorf("%s: tier %s cost %v, one-batch/p1 %v", shape.name, y.Tier, y.CostUSD, x.CostUSD)
						}
						x.CostUSD, y.CostUSD = 0, 0
						if !sameTime {
							x.Time, y.Time = 0, 0
						}
						if x != y {
							t.Errorf("%s: tier %+v, one-batch/p1 %+v", shape.name, y, x)
						}
					}
				}
			})
		}
	}
}

// cascadeStats returns the stats of a run's cascade operator.
func cascadeStats(t *testing.T, res *Result) ops.OpStats {
	t.Helper()
	for _, st := range res.Stats.Ops() {
		if st.Kind == "filter" {
			return st
		}
	}
	t.Fatal("no cascade operator in stats")
	return ops.OpStats{}
}
