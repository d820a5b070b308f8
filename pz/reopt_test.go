package pz

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
)

// reoptPredicates pairs every corpus domain with a (broad, narrow)
// natural-language filter pair. The broad predicate matches a topic every
// generated document carries, so it keeps (nearly) the whole corpus; the
// narrow predicate matches the domain's gold label and keeps only the
// positive class. Inverted priors (broad believed selective, narrow
// believed permissive) make the optimizer start on the costlier
// broad-first order — the exact mis-estimation mid-flight
// re-optimization exists to recover from.
var reoptPredicates = map[string]struct{ broad, narrow string }{
	corpus.DomainBiomed: {
		broad:  "The papers are about colorectal cancer",
		narrow: "The paper cites public datasets",
	},
	corpus.DomainLegal: {
		broad:  "The document is a contract",
		narrow: "The contract contains an indemnification clause",
	},
	corpus.DomainRealEstate: {
		broad:  "The listing is about real estate",
		narrow: "The listing describes a modern home",
	},
	corpus.DomainSupport: {
		broad:  "This is a support ticket",
		narrow: "The ticket is urgent and needs immediate attention",
	},
	corpus.DomainFinance: {
		broad:  "The document is an annual report",
		narrow: "The filing reports a profitable fiscal year",
	},
}

// reoptDocs builds a 48-document corpus for a domain. Biomed uses a custom
// config: the registry generator gives every relevant paper a dataset
// mention, which would make the broad (colorectal) and narrow (public
// datasets) predicates select identical sets; capping NumDatasets below
// NumRelevant keeps the narrow set a strict subset, and NumRelevant at 43
// keeps the broad filter near-universal.
func reoptDocs(t *testing.T, domain string, seed int64) []*corpus.Doc {
	t.Helper()
	if domain == corpus.DomainBiomed {
		return corpus.GenerateBiomed(corpus.BiomedConfig{
			NumPapers: 48, NumRelevant: 43, NumDatasets: 16, Seed: seed,
		})
	}
	g, err := corpus.NewGenerator(domain, 48, -1, seed)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

// misSeededPriors claim the broad filter (position 1) prunes almost
// everything and the narrow filter (position 2) keeps almost everything —
// the opposite of the truth — so the champion plan runs the filters in
// the costlier order until observation corrects it.
func misSeededPriors() map[int]OpEstimate {
	return map[int]OpEstimate{
		1: {Selectivity: 0.05},
		2: {Selectivity: 0.95},
	}
}

// reoptRun executes the broad→narrow filter chain over the given docs and
// returns the result plus its rendered records.
func reoptRun(t *testing.T, domain string, docs []*corpus.Doc, cfg Config, reoptAfter int) (*Result, []string) {
	t.Helper()
	cfg.EstimatePriors = misSeededPriors()
	ctx, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RegisterDocs(domain, TextFile, docs); err != nil {
		t.Fatal(err)
	}
	ds, err := ctx.Dataset(domain)
	if err != nil {
		t.Fatal(err)
	}
	preds := reoptPredicates[domain]
	pipeline := ds.Filter(preds.broad).Filter(preds.narrow)
	if reoptAfter > 0 {
		pipeline = pipeline.WithReopt(reoptAfter)
	}
	res, err := ctx.Execute(pipeline, MaxQuality())
	if err != nil {
		t.Fatal(err)
	}
	return res, renderRecords(res.Records)
}

// TestReoptHotSwapParityProperty is the re-optimization anchor property:
// across every corpus domain and two generator seeds, a pipelined run
// whose mis-seeded priors force a hot swap must (a) actually swap
// mid-flight, (b) stay byte-identical to the never-swapped pipelined run
// and to the one-batch run, and (c) cost strictly less than the
// never-swapped run — the swap prunes earlier, it never changes answers.
// CI runs this under -race, exercising the swap protocol's concurrency.
func TestReoptHotSwapParityProperty(t *testing.T) {
	pipelined := Config{Parallelism: 4, StreamBatchSize: 8}
	for domain := range reoptPredicates {
		for _, seed := range []int64{3, 29} {
			t.Run(fmt.Sprintf("%s/seed%d", domain, seed), func(t *testing.T) {
				docs := reoptDocs(t, domain, seed)

				seqRes, seqRecs := reoptRun(t, domain, docs, Config{}, 0)
				plainRes, plainRecs := reoptRun(t, domain, docs, pipelined, 0)
				swapRes, swapRecs := reoptRun(t, domain, docs, pipelined, 2)

				if len(seqRecs) == 0 {
					t.Fatal("narrow filter kept nothing; fixture is degenerate")
				}
				if seqRes.Reopt != nil || plainRes.Reopt != nil {
					t.Fatal("re-optimization reported on runs that never enabled it")
				}
				ri := swapRes.Reopt
				if ri == nil {
					t.Fatal("re-optimizing run reported no Reopt info")
				}
				if ri.Phase != "inflight" {
					t.Fatalf("reopt phase = %q, want inflight", ri.Phase)
				}
				if !ri.Triggered || !ri.Swapped {
					t.Fatalf("mis-seeded priors did not force a swap: divergence=%.3f threshold=%.3f triggered=%t swapped=%t",
						ri.Divergence, ri.Threshold, ri.Triggered, ri.Swapped)
				}
				if ri.NewPlan == ri.OldPlan {
					t.Fatal("swap reported but the plan display did not change")
				}

				if fmt.Sprint(swapRecs) != fmt.Sprint(plainRecs) {
					t.Fatalf("hot-swapped output diverges from never-swapped pipelined run: %d vs %d records",
						len(swapRecs), len(plainRecs))
				}
				if fmt.Sprint(swapRecs) != fmt.Sprint(seqRecs) {
					t.Fatalf("hot-swapped output diverges from one-batch run: %d vs %d records",
						len(swapRecs), len(seqRecs))
				}
				if swapRes.CostUSD >= plainRes.CostUSD {
					t.Fatalf("hot swap did not cut cost: swapped $%.6f vs plain $%.6f",
						swapRes.CostUSD, plainRes.CostUSD)
				}
			})
		}
	}
}

// TestReoptSequentialPostrunCorrection: the one-batch run cannot swap
// mid-flight, so with re-optimization enabled it must fall back to the
// post-run path — divergence is still detected and the corrected plan is
// still produced (the serving layer caches it), but nothing swaps and the
// output is untouched.
func TestReoptSequentialPostrunCorrection(t *testing.T) {
	docs := reoptDocs(t, corpus.DomainSupport, 7)
	plain, plainRecs := reoptRun(t, corpus.DomainSupport, docs, Config{}, 0)
	re, reRecs := reoptRun(t, corpus.DomainSupport, docs, Config{ReoptAfterBatches: 2}, 0)

	ri := re.Reopt
	if ri == nil {
		t.Fatal("sequential re-optimizing run reported no Reopt info")
	}
	if ri.Phase != "postrun" {
		t.Fatalf("sequential reopt phase = %q, want postrun", ri.Phase)
	}
	if !ri.Triggered {
		t.Fatalf("mis-seeded priors not detected post-run: divergence=%.3f threshold=%.3f", ri.Divergence, ri.Threshold)
	}
	if ri.Swapped {
		t.Fatal("one-batch run must never hot-swap")
	}
	if ri.CorrectedPlan == nil {
		t.Fatal("post-run correction produced no corrected plan")
	}
	if fmt.Sprint(reRecs) != fmt.Sprint(plainRecs) {
		t.Fatalf("post-run correction changed output: %d vs %d records", len(reRecs), len(plainRecs))
	}
	if plain.Reopt != nil {
		t.Fatal("re-optimization reported on a run that never enabled it")
	}
}
