package repro_test

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/workloads"
	"repro/pz"
)

// Corpus-at-scale integration: generate → spill to NDJSON → register
// file-backed → execute → score against ground truth, for both new
// domains, plus engine parity over the file-backed path.

// spill writes a domain corpus to NDJSON under t.TempDir.
func spill(t *testing.T, domain string, n int, seed int64) string {
	t.Helper()
	g, err := corpus.NewGenerator(domain, n, -1, seed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), domain+".ndjson")
	if _, err := corpus.SaveNDJSON(path, g, seed, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSupportTriageOverNDJSONCorpus(t *testing.T) {
	path := spill(t, corpus.DomainSupport, 200, 17)
	ctx, err := pz.NewContext(pz.Config{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	src, err := ctx.RegisterNDJSON("tickets", path)
	if err != nil {
		t.Fatal(err)
	}
	route, err := workloads.SupportRouteSchema()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ctx.Dataset("tickets")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctx.Execute(ds.
		Filter(workloads.SupportPredicate).
		Convert(route, route.Doc(), pz.OneToOne), pz.MaxQuality())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no tickets kept")
	}
	inputs, err := pz.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	triage := metrics.FilterQualityByTruth(inputs, res.Records, workloads.SupportPredicate)
	if triage.F1 < 0.9 {
		t.Fatalf("triage F1 = %.3f, want >= 0.9 (%s)", triage.F1, triage)
	}
	catAcc, n := metrics.FieldAccuracy(res.Records, "category", "category")
	if n == 0 || catAcc < 0.9 {
		t.Fatalf("category accuracy %.3f over %d records, want >= 0.9", catAcc, n)
	}
}

func TestFinanceExtractionOverNDJSONCorpus(t *testing.T) {
	path := spill(t, corpus.DomainFinance, 150, 23)
	ctx, err := pz.NewContext(pz.Config{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	src, err := ctx.RegisterNDJSON("filings", path)
	if err != nil {
		t.Fatal(err)
	}
	figures, err := workloads.FinanceFiguresSchema()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ctx.Dataset("filings")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctx.Execute(ds.
		Filter(workloads.FinancePredicate).
		Convert(figures, figures.Doc(), pz.OneToOne), pz.MaxQuality())
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := pz.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	filter := metrics.FilterQualityByTruth(inputs, res.Records, workloads.FinancePredicate)
	if filter.F1 < 0.9 {
		t.Fatalf("filter F1 = %.3f, want >= 0.9 (%s)", filter.F1, filter)
	}
	revAcc, n := metrics.FieldAccuracy(res.Records, "revenue_musd", "revenue_musd")
	if n == 0 || revAcc < 0.9 {
		t.Fatalf("revenue accuracy %.3f over %d records, want >= 0.9", revAcc, n)
	}
}

// TestNDJSONEnginesAgree runs the same file-backed pipeline sequentially
// (P=1, materializing scan) and pipelined (P=8, streaming scan) and
// requires field-identical outputs.
func TestNDJSONEnginesAgree(t *testing.T) {
	path := spill(t, corpus.DomainSupport, 120, 5)
	run := func(parallelism int) []string {
		ctx, err := pz.NewContext(pz.Config{Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.RegisterNDJSON("tickets", path); err != nil {
			t.Fatal(err)
		}
		ds, err := ctx.Dataset("tickets")
		if err != nil {
			t.Fatal(err)
		}
		res, err := ctx.Execute(ds.Filter(workloads.SupportPredicate), pz.MaxQuality())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(res.Records))
		for i, r := range res.Records {
			out[i] = fmt.Sprintf("%s|%s", r.GetString("filename"), r.GetString("contents"))
		}
		return out
	}
	seq, pipe := run(1), run(8)
	if len(seq) != len(pipe) {
		t.Fatalf("engines kept %d vs %d records", len(seq), len(pipe))
	}
	for i := range seq {
		if seq[i] != pipe[i] {
			t.Fatalf("record %d differs between engines", i)
		}
	}
}

// TestSpecFileRegistersNDJSON drives the serving-layer wire format: a
// spec naming an unregistered dataset with a "file" pointer must register
// the corpus on first use, exactly as "dir" does for folders.
func TestSpecFileRegistersNDJSON(t *testing.T) {
	path := spill(t, corpus.DomainFinance, 40, 9)
	raw := fmt.Sprintf(`{
	  "dataset": {"name": "filings", "file": %q},
	  "ops": [{"op": "filter", "predicate": %q}],
	  "policy": "max-quality"
	}`, path, workloads.FinancePredicate)
	sp, err := serve.ParseSpec([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := pz.NewContext(pz.Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sp.Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := sp.ParsePolicy()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctx.Execute(ds, policy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("spec-registered corpus produced no records")
	}
	if got := ctx.Datasets(); len(got) != 1 || got[0] != "filings" {
		t.Fatalf("registry = %v", got)
	}

	// A spec with neither a registered name nor dir/file must error.
	bad := &serve.Spec{Dataset: serve.DatasetSpec{Name: "ghost"}}
	if _, err := bad.Build(ctx); err == nil || !strings.Contains(err.Error(), "no dir or file") {
		t.Fatalf("unresolvable dataset error = %v", err)
	}
}
