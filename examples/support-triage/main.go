// Support triage: the customer-support workload over a file-backed
// corpus.
//
// It spills a synthetic ticket corpus to an on-disk NDJSON file (the same
// format `pzcorpus generate` writes), registers the file on a pz.Context
// without loading it whole, filters for urgent tickets, extracts routing
// fields with a derived schema, and scores both stages against the hidden
// ground truth the corpus carries.
//
//	go run ./examples/support-triage
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
	// Spill the corpus to disk exactly as `pzcorpus generate -domain
	// support -n 400 -out tickets.ndjson` would.
	cfg := corpus.SupportConfig{NumTickets: 400, UrgentRate: 0.3, Seed: 17}
	path := filepath.Join(os.TempDir(), "palimpzest-tickets.ndjson")
	if _, err := corpus.SaveNDJSON(path, corpus.NewSupportGenerator(cfg), cfg.Seed, cfg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %s (%d tickets)\n\n", path, cfg.NumTickets)

	// Register the file-backed corpus; with Parallelism > 1 the engine
	// streams batches of records straight from the file.
	ctx, err := pz.NewContext(pz.Config{Parallelism: 8})
	if err != nil {
		log.Fatal(err)
	}
	src, err := ctx.RegisterNDJSON("tickets", path)
	if err != nil {
		log.Fatal(err)
	}

	route, err := workloads.SupportRouteSchema()
	if err != nil {
		log.Fatal(err)
	}
	ds, err := ctx.Dataset("tickets")
	if err != nil {
		log.Fatal(err)
	}
	pipeline := ds.
		Filter(workloads.SupportPredicate).
		Convert(route, route.Doc(), pz.OneToOne).
		Sort("ticket_id", false)
	res, err := ctx.Execute(pipeline, pz.MaxQuality())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Report(6))

	// Score against the ground truth carried through the NDJSON round
	// trip: triage quality (did the filter keep the urgent tickets?) and
	// routing accuracy (is the extracted category the labeled one?).
	inputs, err := src.Records()
	if err != nil {
		log.Fatal(err)
	}
	triage := metrics.FilterQualityByTruth(inputs, res.Records, workloads.SupportPredicate)
	catAcc, n := metrics.FieldAccuracy(res.Records, "category", "category")
	priAcc, _ := metrics.FieldAccuracy(res.Records, "priority", "priority")
	fmt.Printf("\ntriage quality:   %s\n", triage)
	fmt.Printf("routing accuracy: category %.3f, priority %.3f over %d tickets\n", catAcc, priAcc, n)
}
