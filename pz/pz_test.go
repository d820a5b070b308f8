package pz

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
)

func demoContext(t *testing.T, cfg Config) (*Context, *Dataset) {
	t.Helper()
	ctx, err := NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := corpus.GenerateBiomed(corpus.PaperDemoBiomed())
	if _, err := ctx.RegisterDocs("sigmod-demo", PDFFile, docs); err != nil {
		t.Fatal(err)
	}
	ds, err := ctx.Dataset("sigmod-demo")
	if err != nil {
		t.Fatal(err)
	}
	return ctx, ds
}

func clinicalSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := DeriveSchema("ClinicalData",
		"A schema for extracting clinical data datasets from papers.",
		[]string{"name", "description", "url"},
		[]string{"The name of the clinical data dataset",
			"A short description of the content of the dataset",
			"The public URL where the dataset can be accessed"})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFigure6Pipeline(t *testing.T) {
	ctx, ds := demoContext(t, Config{})
	clinical := clinicalSchema(t)
	ds = ds.Filter("The papers are about colorectal cancer").
		Convert(clinical, clinical.Doc(), OneToMany)
	res, err := ctx.Execute(ds, MaxQuality())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 6 {
		t.Fatalf("records = %d, want 6", len(res.Records))
	}
	if res.Elapsed < time.Minute {
		t.Errorf("elapsed = %v, implausibly fast", res.Elapsed)
	}
	if res.CostUSD <= 0 {
		t.Error("no cost recorded")
	}
	rep := res.Report(2)
	if !strings.Contains(rep, "output records: 6") || !strings.Contains(rep, "total cost") {
		t.Errorf("report = %q", rep)
	}
}

func TestBuilderDefersErrors(t *testing.T) {
	ctx, ds := demoContext(t, Config{})
	bad := ds.Filter("").Convert(nil, "", OneToOne)
	if bad.Err() == nil {
		t.Fatal("builder error not captured")
	}
	if _, err := ctx.Execute(bad, MaxQuality()); err == nil {
		t.Fatal("Execute on errored builder accepted")
	}
	// First error wins.
	if !strings.Contains(bad.Err().Error(), "predicate") {
		t.Errorf("err = %v", bad.Err())
	}
}

func TestBuilderImmutable(t *testing.T) {
	_, ds := demoContext(t, Config{})
	a := ds.Filter("about colorectal cancer")
	b := ds.Filter("about influenza")
	if a.Describe() == b.Describe() {
		t.Error("builders share state")
	}
	if len(ds.Chain()) != 1 {
		t.Errorf("base chain mutated: %d ops", len(ds.Chain()))
	}
}

func TestOutputSchema(t *testing.T) {
	_, ds := demoContext(t, Config{})
	clinical := clinicalSchema(t)
	s, err := ds.Filter("x").Convert(clinical, "d", OneToMany).OutputSchema()
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "ClinicalData" {
		t.Errorf("schema = %s", s.Name())
	}
	if _, err := ds.Project("no_such_field").OutputSchema(); err == nil {
		t.Error("bad projection accepted")
	}
}

func TestDescribe(t *testing.T) {
	_, ds := demoContext(t, Config{})
	d := ds.Filter("p").Limit(3).Describe()
	if !strings.Contains(d, "scan(") || !strings.Contains(d, `filter("p")`) || !strings.Contains(d, "limit(3)") {
		t.Errorf("Describe = %q", d)
	}
}

func TestPolicies(t *testing.T) {
	for _, p := range []Policy{
		MaxQuality(), MinCost(), MinTime(),
		MaxQualityAtCost(0.5), MaxQualityAtTime(120),
		MinCostAtQuality(0.8), MinTimeAtQuality(0.8),
	} {
		if p.Name() == "" || p.Describe() == "" {
			t.Errorf("policy %T incomplete", p)
		}
	}
	p, err := ParsePolicy("max quality", 0)
	if err != nil || p.Name() != "max-quality" {
		t.Errorf("ParsePolicy = %v, %v", p, err)
	}
}

func TestOptimizeOnly(t *testing.T) {
	ctx, ds := demoContext(t, Config{})
	clinical := clinicalSchema(t)
	pipeline := ds.Filter("The papers are about colorectal cancer").
		Convert(clinical, clinical.Doc(), OneToMany)
	plan, candidates, err := ctx.OptimizeOnly(pipeline, MinCost())
	if err != nil {
		t.Fatal(err)
	}
	if len(candidates) == 0 || plan == nil {
		t.Fatal("no plans")
	}
	if strings.Contains(plan.String(), "atlas-large") {
		t.Errorf("min-cost plan = %s", plan)
	}
	if ctx.TotalCost() != 0 {
		t.Errorf("OptimizeOnly without sampling charged $%.4f", ctx.TotalCost())
	}
}

// TestOptimizeOnlyMatchesExecute: explaining a plan and running it must
// optimize the same problem, so for every policy on both run shapes the
// champion OptimizeOnly reports is the plan Execute runs.
func TestOptimizeOnlyMatchesExecute(t *testing.T) {
	policies := []Policy{
		MaxQuality(), MinCost(), MinTime(),
		MaxQualityAtCost(0.2), MaxQualityAtTime(60),
		MinCostAtQuality(0.8), MinTimeAtQuality(0.8),
	}
	for _, par := range []int{1, 4} {
		for _, policy := range policies {
			ctx, ds := demoContext(t, Config{Parallelism: par})
			clinical := clinicalSchema(t)
			pipeline := ds.Filter("The papers are about colorectal cancer").
				Convert(clinical, clinical.Doc(), OneToMany)
			plan, _, err := ctx.OptimizeOnly(pipeline, policy)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ctx.Execute(pipeline, policy)
			if err != nil {
				t.Fatal(err)
			}
			if plan.String() != res.Plan.String() || plan.Time() != res.Plan.Time() {
				t.Errorf("P=%d %s: OptimizeOnly chose %s (%.1fs), Execute ran %s (%.1fs)",
					par, policy.Describe(), plan, plan.Time(), res.Plan, res.Plan.Time())
			}
		}
	}
}

func TestUsageAccumulatesAcrossRuns(t *testing.T) {
	ctx, ds := demoContext(t, Config{})
	pipeline := ds.FilterUDF("all", func(*Record) (bool, error) { return true, nil }).Limit(2)
	if _, err := ctx.Execute(pipeline, MinCost()); err != nil {
		t.Fatal(err)
	}
	clinical := clinicalSchema(t)
	p2, err := ctx.Dataset("sigmod-demo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Execute(p2.Limit(2).Convert(clinical, "d", OneToOne), MinCost()); err != nil {
		t.Fatal(err)
	}
	if ctx.TotalCost() <= 0 {
		t.Error("usage did not accumulate")
	}
	if !strings.Contains(ctx.UsageReport(), "cost_usd") {
		t.Error("usage report malformed")
	}
}

func TestRegisterDirAndDatasets(t *testing.T) {
	ctx, err := NewContext(Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	docs := corpus.GenerateLegal(corpus.LegalConfig{NumContracts: 3, IndemnificationRate: 1, Seed: 8})
	if _, err := corpus.WriteFiles(dir, docs); err != nil {
		t.Fatal(err)
	}
	src, err := ctx.RegisterDir("legal", dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.Schema().Name() != "TextFile" {
		t.Errorf("schema = %s", src.Schema().Name())
	}
	if got := ctx.Datasets(); len(got) != 1 || got[0] != "legal" {
		t.Errorf("Datasets = %v", got)
	}
	if _, err := ctx.Dataset("missing"); err == nil {
		t.Error("missing dataset accepted")
	}
}

func TestRetrieveGroupBySortPipeline(t *testing.T) {
	ctx, err := NewContext(Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	docs := corpus.GenerateRealEstate(corpus.DefaultRealEstate())
	if _, err := ctx.RegisterDocs("re", TextFile, docs); err != nil {
		t.Fatal(err)
	}
	listing, err := NewSchema("Listing", "A real estate listing.",
		Field{Name: "neighborhood", Type: String, Desc: "The neighborhood"},
		Field{Name: "price", Type: Float, Desc: "The asking price"},
	)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := ctx.Dataset("re")
	pipeline := ds.Retrieve("modern renovated kitchen", 30).
		Convert(listing, listing.Doc(), OneToOne).
		GroupBy([]string{"neighborhood"}, Avg, "price").
		Sort("value", true).
		Limit(3)
	res, err := ctx.Execute(pipeline, MinCost())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 || len(res.Records) > 3 {
		t.Fatalf("records = %d", len(res.Records))
	}
}

func TestSentinelSamplingConfig(t *testing.T) {
	ctx, ds := demoContext(t, Config{SampleSize: 3})
	clinical := clinicalSchema(t)
	pipeline := ds.Filter("The papers are about colorectal cancer").
		Convert(clinical, clinical.Doc(), OneToMany)
	res, err := ctx.Execute(pipeline, MaxQuality())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 6 {
		t.Errorf("records = %d", len(res.Records))
	}
	if res.Candidates == 0 {
		t.Error("no candidates reported")
	}
}

func TestFilterUDFZeroCost(t *testing.T) {
	ctx, ds := demoContext(t, Config{})
	pipeline := ds.FilterUDF("has_cancer_text", func(r *Record) (bool, error) {
		return strings.Contains(r.GetString("contents"), "colorectal"), nil
	})
	res, err := ctx.Execute(pipeline, MinCost())
	if err != nil {
		t.Fatal(err)
	}
	if res.CostUSD != 0 {
		t.Errorf("UDF pipeline cost $%.4f", res.CostUSD)
	}
	if len(res.Records) == 0 {
		t.Error("UDF filtered everything")
	}
	if ds.FilterUDF("x", nil).Err() == nil {
		t.Error("nil UDF accepted")
	}
}

// TestOperatorPanicFailsOnlyItsQuery: a UDF that panics fails the query
// it runs in, naming the operator and the panic value, and leaves the
// Context able to run the next query, on both run shapes.
func TestOperatorPanicFailsOnlyItsQuery(t *testing.T) {
	for _, par := range []int{1, 4} {
		ctx, ds := demoContext(t, Config{Parallelism: par})
		var calls atomic.Int64
		pipeline := ds.FilterUDF("fragile", func(r *Record) (bool, error) {
			if calls.Add(1) == 5 {
				panic("bad record")
			}
			return strings.Contains(r.GetString("contents"), "colorectal"), nil
		})
		_, err := ctx.Execute(pipeline, MinCost())
		if err == nil {
			t.Fatalf("P=%d: the panicking query returned no error", par)
		}
		for _, want := range []string{"udf-filter(fragile)", "bad record"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("P=%d: error %q does not name %q", par, err, want)
			}
		}
		res, err := ctx.Execute(pipeline, MinCost())
		if err != nil {
			t.Fatalf("P=%d: the query after the panic failed: %v", par, err)
		}
		if len(res.Records) == 0 {
			t.Errorf("P=%d: the query after the panic kept no records", par)
		}
	}
}

// TestNewContextRejectsNegativeKnobs: a negative sample size or
// re-optimization window is an error, not a silent "off".
func TestNewContextRejectsNegativeKnobs(t *testing.T) {
	for _, cfg := range []Config{{SampleSize: -1}, {ReoptAfterBatches: -2}} {
		if _, err := NewContext(cfg); err == nil {
			t.Errorf("NewContext accepted %+v", cfg)
		}
	}
}
