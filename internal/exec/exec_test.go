package exec

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/internal/schema"
)

var clinical = schema.MustNew("ClinicalData", "A schema for extracting clinical data datasets from papers.",
	schema.Field{Name: "name", Type: schema.String, Desc: "The name of the clinical data dataset"},
	schema.Field{Name: "description", Type: schema.String, Desc: "A short description"},
	schema.Field{Name: "url", Type: schema.String, Desc: "The public URL"},
)

const demoPredicate = "The papers are about colorectal cancer"

func demoChain(t *testing.T) []ops.Logical {
	t.Helper()
	docs := corpus.GenerateBiomed(corpus.PaperDemoBiomed())
	src, err := dataset.NewDocsSource("sigmod-demo", schema.PDFFile, docs)
	if err != nil {
		t.Fatal(err)
	}
	return []ops.Logical{
		&ops.Scan{Source: src},
		&ops.Filter{Predicate: demoPredicate},
		&ops.Convert{Target: clinical, Desc: clinical.Doc(), Card: ops.OneToMany},
	}
}

func TestExecutorConfigDefaults(t *testing.T) {
	e, err := NewExecutor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.Parallelism != 1 {
		t.Errorf("defaults = %+v", e.cfg)
	}
	for _, cfg := range []Config{
		{Parallelism: -1}, {Partitions: -1}, {SampleSize: -1},
		{ReoptAfterBatches: -1}, {CacheCapacity: -1}, {StreamBatchSize: -1},
	} {
		if _, err := NewExecutor(cfg); err == nil {
			t.Errorf("NewExecutor accepted %+v", cfg)
		}
	}
}

func TestE1ScientificDiscoveryMaxQuality(t *testing.T) {
	e, err := NewExecutor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), demoChain(t), optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline numbers: 11 papers in, 6 datasets out,
	// runtime ~240s, cost ~$0.35.
	if len(res.Records) != 6 {
		t.Fatalf("extracted %d datasets, want 6", len(res.Records))
	}
	if res.Elapsed < 60*time.Second || res.Elapsed > 900*time.Second {
		t.Errorf("simulated runtime %v outside the paper's magnitude (~240s)", res.Elapsed)
	}
	if res.CostUSD < 0.01 || res.CostUSD > 2.0 {
		t.Errorf("cost $%.4f outside the paper's magnitude (~$0.35)", res.CostUSD)
	}
	if res.Plan == nil || !strings.Contains(res.Plan.String(), "atlas-large") {
		t.Errorf("plan = %v", res.Plan)
	}
	for _, r := range res.Records {
		if r.GetString("url") == "" {
			t.Errorf("record missing url: %s", r)
		}
	}
}

func TestExecuteMinCostCheaper(t *testing.T) {
	run := func(p optimizer.Policy) *Result {
		e, err := NewExecutor(Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(context.Background(), demoChain(t), p, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	q := run(optimizer.MaxQuality{})
	c := run(optimizer.MinCost{})
	if c.CostUSD >= q.CostUSD {
		t.Errorf("min-cost run $%.4f >= max-quality run $%.4f", c.CostUSD, q.CostUSD)
	}
}

func TestRunPhysicalDirect(t *testing.T) {
	e, _ := NewExecutor(Config{})
	chain := demoChain(t)
	phys, err := optimizer.ChampionPlan(chain)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 6 {
		t.Errorf("champion physical run produced %d", len(res.Records))
	}
	if res.Plan != nil {
		t.Error("direct run should have nil Plan")
	}
	if _, err := e.Run(context.Background(), nil); err == nil {
		t.Error("empty plan accepted")
	}
}

func TestParallelismReducesElapsed(t *testing.T) {
	run := func(par int) time.Duration {
		e, _ := NewExecutor(Config{Parallelism: par})
		res, err := e.Execute(context.Background(), demoChain(t), optimizer.MaxQuality{}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	if seq, par := run(1), run(8); par >= seq {
		t.Errorf("parallel %v >= sequential %v", par, seq)
	}
}

func TestFailureInjectionRecovered(t *testing.T) {
	e, err := newExecutor(Config{}, faults{failureRate: 0.2, maxAttempts: 10, backoff: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), demoChain(t), optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatalf("pipeline failed despite retries: %v", err)
	}
	if len(res.Records) != 6 {
		t.Errorf("records = %d", len(res.Records))
	}
	// Failures should be recorded in usage.
	failures := 0
	for _, u := range e.Service().Usage() {
		failures += u.Failures
	}
	if failures == 0 {
		t.Error("no injected failures recorded at 20% rate")
	}
}

func TestSentinelSamplingChargesCost(t *testing.T) {
	e1, _ := NewExecutor(Config{})
	plain, err := e1.Execute(context.Background(), demoChain(t), optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := NewExecutor(Config{SampleSize: 4})
	sampled, err := e2.Execute(context.Background(), demoChain(t), optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.CostUSD <= plain.CostUSD {
		t.Errorf("sampled run $%.4f should cost more than plain $%.4f (sentinel calls)",
			sampled.CostUSD, plain.CostUSD)
	}
	if len(sampled.Records) != len(plain.Records) {
		t.Errorf("sampling changed output: %d vs %d", len(sampled.Records), len(plain.Records))
	}
}

func TestReportContents(t *testing.T) {
	e, _ := NewExecutor(Config{})
	res, err := e.Execute(context.Background(), demoChain(t), optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := Report(res, 3)
	for _, want := range []string{
		"Execution Report", "policy:", "plan:", "output records: 6",
		"per-operator statistics", "total runtime", "total cost",
		"llm-filter", "llm-convert", "… and 3 more",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestStatsPerOperator(t *testing.T) {
	e, _ := NewExecutor(Config{})
	res, err := e.Execute(context.Background(), demoChain(t), optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sts := res.Stats.Ops()
	if len(sts) != 3 {
		t.Fatalf("operators = %d", len(sts))
	}
	if sts[0].Kind != "scan" || sts[0].OutRecords != 11 {
		t.Errorf("scan stats = %+v", sts[0])
	}
	if sts[1].Kind != "filter" || sts[1].InRecords != 11 || sts[1].OutRecords != 5 || sts[1].LLMCalls != 11 {
		t.Errorf("filter stats = %+v", sts[1])
	}
	if sts[2].Kind != "convert" || sts[2].InRecords != 5 || sts[2].OutRecords != 6 {
		t.Errorf("convert stats = %+v", sts[2])
	}
}

func TestUsageMatchesResultCost(t *testing.T) {
	e, _ := NewExecutor(Config{})
	res, err := e.Execute(context.Background(), demoChain(t), optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.CostUSD - e.Service().TotalCost(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("result cost %.6f != service cost %.6f", res.CostUSD, e.Service().TotalCost())
	}
	if _, err := llm.Card("atlas-large"); err != nil {
		t.Fatal(err)
	}
}

func TestRelationalTailOperators(t *testing.T) {
	docs := corpus.GenerateRealEstate(corpus.DefaultRealEstate())
	src, err := dataset.NewDocsSource("re", schema.TextFile, docs)
	if err != nil {
		t.Fatal(err)
	}
	listing := schema.MustNew("Listing", "A real estate listing.",
		schema.Field{Name: "neighborhood", Type: schema.String, Desc: "The neighborhood"},
		schema.Field{Name: "price", Type: schema.Float, Desc: "The asking price in dollars"},
	)
	chain := []ops.Logical{
		&ops.Scan{Source: src},
		&ops.Retrieve{Query: "modern renovated kitchen", K: 30},
		&ops.Convert{Target: listing, Desc: listing.Doc(), Card: ops.OneToOne},
		&ops.GroupBy{Keys: []string{"neighborhood"}, Func: ops.AggAvg, Field: "price"},
		&ops.Sort{Field: "value", Descending: true},
		&ops.Limit{N: 5},
	}
	e, _ := NewExecutor(Config{Parallelism: 4})
	res, err := e.Execute(context.Background(), chain, optimizer.MinCost{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 || len(res.Records) > 5 {
		t.Fatalf("records = %d", len(res.Records))
	}
	prev := res.Records[0].GetFloat("value")
	for _, r := range res.Records[1:] {
		if v := r.GetFloat("value"); v > prev {
			t.Error("group averages not descending")
		} else {
			prev = v
		}
	}
}
