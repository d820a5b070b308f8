package exec

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/ops"
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

// TestCascadeDegenerateParityProperty is the cascade harness's anchor
// property: with Threshold 0 the cascade degenerates to resolve-only and
// must keep a byte-identical record sequence to the plain big-model
// filter — across every corpus domain, three generator seeds, and both
// engines (the pipelined one exercising the concurrent tier paths under
// -race in CI).
func TestCascadeDegenerateParityProperty(t *testing.T) {
	for domain, pred := range cascadeParityPredicates {
		for _, seed := range []int64{1, 17, 42} {
			t.Run(fmt.Sprintf("%s/seed%d", domain, seed), func(t *testing.T) {
				src := domainSource(t, domain, 48, seed)
				filter := &ops.Filter{Predicate: pred}
				plainPlan := func() []ops.Physical {
					return []ops.Physical{
						&ops.ScanExec{Source: src},
						&ops.LLMFilterExec{Filter: filter, Model: "atlas-large"},
					}
				}
				// A fresh operator per run: the cascade carries per-run
				// init state, and sharing across run shapes would blur which
				// run produced which accounting.
				cascPlan := func() []ops.Physical {
					return []ops.Physical{
						&ops.ScanExec{Source: src},
						&ops.CascadeFilterExec{
							Filter:       filter,
							VerifyModel:  "atlas-small",
							ResolveModel: "atlas-large",
							Threshold:    0,
						},
					}
				}
				engines := map[string]func([]ops.Physical) (*Result, error){
					"sequential": func(p []ops.Physical) (*Result, error) {
						e, err := NewExecutor(Config{})
						if err != nil {
							t.Fatal(err)
						}
						return e.RunSequential(context.Background(), p)
					},
					"pipelined": func(p []ops.Physical) (*Result, error) {
						e, err := NewExecutor(Config{Parallelism: 4})
						if err != nil {
							t.Fatal(err)
						}
						return e.RunPipelined(context.Background(), p)
					},
				}
				var want []string
				for engine, run := range engines {
					plain, err := run(plainPlan())
					if err != nil {
						t.Fatalf("%s plain: %v", engine, err)
					}
					casc, err := run(cascPlan())
					if err != nil {
						t.Fatalf("%s cascade: %v", engine, err)
					}
					pk, ck := recordKeys(plain.Records), recordKeys(casc.Records)
					if len(pk) == 0 {
						t.Fatalf("%s plain filter kept nothing; fixture is degenerate", engine)
					}
					if fmt.Sprint(pk) != fmt.Sprint(ck) {
						t.Fatalf("%s: degenerate cascade output diverges from plain filter\nplain:   %d records\ncascade: %d records", engine, len(pk), len(ck))
					}
					// Cost parity up to float summation order: the pipelined
					// engine accumulates per-batch costs in arrival order,
					// so totals can differ from the plain run by ULPs.
					if diff := casc.CostUSD - plain.CostUSD; diff > 1e-9 || diff < -1e-9 {
						t.Errorf("%s: degenerate cascade cost %v != plain cost %v", engine, casc.CostUSD, plain.CostUSD)
					}
					// Engines agree with each other too.
					if want == nil {
						want = ck
					} else if fmt.Sprint(want) != fmt.Sprint(ck) {
						t.Errorf("%s cascade output diverges across run shapes", engine)
					}
				}
			})
		}
	}
}
