// Financial filings: the numeric-extraction workload over a file-backed
// corpus.
//
// It spills a synthetic 10-K corpus to an on-disk NDJSON file, registers
// the file on a pz.Context without loading it whole, filters for
// profitable fiscal years, extracts key figures (revenue, net income)
// with typed schema fields, aggregates revenue by the pipeline, and
// scores the filter and the numeric extraction against ground truth.
//
//	go run ./examples/financial-filings
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/workloads"
	"repro/pz"
)

func main() {
	cfg := corpus.FinanceConfig{NumFilings: 300, ProfitableRate: 0.6, Seed: 23}
	path := filepath.Join(os.TempDir(), "palimpzest-filings.ndjson")
	if _, err := corpus.SaveNDJSON(path, corpus.NewFinanceGenerator(cfg), cfg.Seed, cfg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %s (%d filings)\n\n", path, cfg.NumFilings)

	ctx, err := pz.NewContext(pz.Config{Parallelism: 8})
	if err != nil {
		log.Fatal(err)
	}
	src, err := ctx.RegisterNDJSON("filings", path)
	if err != nil {
		log.Fatal(err)
	}

	figures, err := workloads.FinanceFiguresSchema()
	if err != nil {
		log.Fatal(err)
	}
	ds, err := ctx.Dataset("filings")
	if err != nil {
		log.Fatal(err)
	}
	pipeline := ds.
		Filter(workloads.FinancePredicate).
		Convert(figures, figures.Doc(), pz.OneToOne).
		Sort("revenue_musd", true)
	res, err := ctx.Execute(pipeline, pz.MaxQuality())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Report(6))

	// Score against the ground truth carried through the NDJSON round
	// trip: the profitability filter and per-field numeric accuracy.
	inputs, err := pz.Collect(src)
	if err != nil {
		log.Fatal(err)
	}
	filter := metrics.FilterQualityByTruth(inputs, res.Records, workloads.FinancePredicate)
	revAcc, n := metrics.FieldAccuracy(res.Records, "revenue_musd", "revenue_musd")
	niAcc, _ := metrics.FieldAccuracy(res.Records, "net_income_musd", "net_income_musd")
	fmt.Printf("\nfilter quality:     %s\n", filter)
	fmt.Printf("numeric extraction: revenue %.3f, net income %.3f over %d filings\n", revAcc, niAcc, n)
}
