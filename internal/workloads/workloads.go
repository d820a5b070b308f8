// Package workloads builds shared synthetic workloads used by both the
// executor tests and the top-level benchmarks, so the streaming-engine
// acceptance test (internal/exec) and BenchmarkExecEngines measure exactly
// the same plan. It deliberately does not import internal/exec.
package workloads

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/schema"
)

// StreamPredicates are the three balanced filter predicates of the
// streaming-engine comparison workload; every generated record's text
// satisfies all of them (modulo per-model noise), keeping the stages
// balanced so they overlap fully when stages stream.
var StreamPredicates = [3]string{
	"alpha beta study",
	"gamma delta cohort",
	"epsilon zeta trial",
}

// StreamSourceName is the registry name of the streaming workload's
// dataset (shared by StreamSource and serve-layer registrations so plan
// fingerprints agree).
const StreamSourceName = "stream-bench"

// StreamRecords builds the n synthetic text records of the streaming
// workload, for callers that register them themselves (e.g. a pz.Context
// behind the serving layer). Every record satisfies StreamPredicates.
func StreamRecords(n int) ([]*record.Record, *schema.Schema, error) {
	recs := make([]*record.Record, 0, n)
	for i := 0; i < n; i++ {
		r, err := record.New(schema.TextFile, map[string]any{
			"filename": fmt.Sprintf("doc-%03d.txt", i),
			"contents": fmt.Sprintf("doc %d alpha beta gamma delta epsilon zeta study cohort trial", i),
		})
		if err != nil {
			return nil, nil, err
		}
		recs = append(recs, r)
	}
	return recs, schema.TextFile, nil
}

// StreamSource builds an in-memory source of n text records whose contents
// satisfy StreamPredicates.
func StreamSource(n int) (dataset.Source, error) {
	recs, s, err := StreamRecords(n)
	if err != nil {
		return nil, err
	}
	return dataset.NewMemSource(StreamSourceName, s, recs)
}

// StreamChain is the streaming-engine comparison workload: n records
// flowing through three balanced LLM filter stages.
func StreamChain(n int) ([]ops.Logical, error) {
	src, err := StreamSource(n)
	if err != nil {
		return nil, err
	}
	chain := []ops.Logical{&ops.Scan{Source: src}}
	for _, p := range StreamPredicates {
		chain = append(chain, &ops.Filter{Predicate: p})
	}
	return chain, nil
}

// StreamPlan resolves StreamChain to its champion physical plan.
func StreamPlan(n int) ([]ops.Physical, error) {
	chain, err := StreamChain(n)
	if err != nil {
		return nil, err
	}
	return optimizer.ChampionPlan(chain)
}

// The two corpus-scale workloads over the streaming-native domains
// (internal/corpus support and finance). Both take any dataset.Source —
// an in-memory DocsSource or a file-backed NDJSONSource — so the same
// chain runs over a registered 100k-document corpus file in
// BenchmarkCorpusScale and over small in-memory corpora in tests.

// SupportPredicate is the triage filter of the support workload; its gold
// answer is the corpus UrgentLabel.
const SupportPredicate = "The ticket is urgent and needs immediate attention"

// FinancePredicate is the profitability filter of the finance workload;
// its gold answer is the corpus ProfitableLabel.
const FinancePredicate = "The filing reports a profitable fiscal year"

// SupportRouteSchema is the routing extraction target of the support
// workload: who the ticket is from and where it should go.
func SupportRouteSchema() (*schema.Schema, error) {
	return schema.Derive("TicketRoute",
		"Routing fields extracted from a customer-support ticket.",
		[]string{"ticket_id", "product", "category", "priority"},
		[]string{
			"The ticket identifier (TCK-...)",
			"The product the ticket concerns",
			"The support category the ticket should route to",
			"The ticket priority (P1..P4)",
		})
}

// FinanceFiguresSchema is the numeric extraction target of the finance
// workload: the filing's key figures.
func FinanceFiguresSchema() (*schema.Schema, error) {
	return schema.Derive("KeyFigures",
		"Key financial figures extracted from an annual filing.",
		[]string{"company", "fiscal_year:int", "revenue_musd:float", "net_income_musd:float", "eps:float"},
		[]string{
			"The filing company's legal name",
			"The fiscal year the filing covers",
			"Total revenue in millions of USD",
			"Net income in millions of USD (negative for a loss)",
			"Diluted earnings per share in USD (negative for a loss)",
		})
}

// SupportTriageChain is the support workload: tickets flowing through the
// urgency filter into routing extraction.
func SupportTriageChain(src dataset.Source) ([]ops.Logical, error) {
	route, err := SupportRouteSchema()
	if err != nil {
		return nil, err
	}
	return []ops.Logical{
		&ops.Scan{Source: src},
		&ops.Filter{Predicate: SupportPredicate},
		&ops.Convert{Target: route, Desc: route.Doc(), Card: ops.OneToOne},
	}, nil
}

// FinanceExtractChain is the finance workload: filings flowing through
// the profitability filter into key-figure extraction.
func FinanceExtractChain(src dataset.Source) ([]ops.Logical, error) {
	figures, err := FinanceFiguresSchema()
	if err != nil {
		return nil, err
	}
	return []ops.Logical{
		&ops.Scan{Source: src},
		&ops.Filter{Predicate: FinancePredicate},
		&ops.Convert{Target: figures, Desc: figures.Doc(), Card: ops.OneToOne},
	}, nil
}
