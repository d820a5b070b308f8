package ops

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/simclock"
)

// newCtx builds an execution context over a fresh service and sim clock.
func newCtx(t *testing.T, parallelism int) (*Ctx, *llm.Service, *simclock.Sim) {
	t.Helper()
	svc := llm.NewService()
	clock := simclock.NewSim()
	client, err := llm.NewRetryClient(svc, clock, 3, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return &Ctx{
		Client:      client,
		Svc:         svc,
		Clock:       clock,
		Parallelism: parallelism,
		Stats:       NewRunStats(),
	}, svc, clock
}

func biomedSource(t *testing.T) dataset.Source {
	t.Helper()
	docs := corpus.GenerateBiomed(corpus.PaperDemoBiomed())
	src, err := dataset.NewDocsSource("sigmod-demo", schema.PDFFile, docs)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

var clinical = schema.MustNew("ClinicalData", "A schema for extracting clinical data datasets from papers.",
	schema.Field{Name: "name", Type: schema.String, Desc: "The name of the clinical data dataset"},
	schema.Field{Name: "description", Type: schema.String, Desc: "A short description of the content of the dataset"},
	schema.Field{Name: "url", Type: schema.String, Desc: "The public URL where the dataset can be accessed"},
)

const demoPredicate = "The papers are about colorectal cancer"

func scanAll(t *testing.T, ctx *Ctx, src dataset.Source) []*record.Record {
	t.Helper()
	scan := &ScanExec{Source: src}
	recs, err := scan.Execute(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestValidatePlanHappyPath(t *testing.T) {
	src := biomedSource(t)
	chain := []Logical{
		&Scan{Source: src},
		&Filter{Predicate: demoPredicate},
		&Convert{Target: clinical, Desc: clinical.Doc(), Card: OneToMany},
	}
	out, err := ValidatePlan(chain)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name() != "ClinicalData" {
		t.Errorf("output schema = %s", out.Name())
	}
}

func TestValidatePlanErrors(t *testing.T) {
	src := biomedSource(t)
	cases := [][]Logical{
		{},
		{&Filter{Predicate: "x"}},
		{&Scan{Source: src}, &Scan{Source: src}},
		{&Scan{Source: src}, &Project{Fields: []string{"nope"}}},
		{&Scan{Source: src}, &Limit{N: -1}},
		{&Scan{Source: src}, &Retrieve{Query: "q", K: 0}},
		{&Scan{Source: src}, &Sort{Field: "nope"}},
		{&Scan{Source: src}, &Aggregate{Func: AggAvg, Field: "nope"}},
		{&Scan{Source: src}, &GroupBy{Keys: nil}},
		{&Scan{Source: src}, &Convert{Target: nil}},
	}
	for i, chain := range cases {
		if _, err := ValidatePlan(chain); err == nil {
			t.Errorf("case %d: invalid plan accepted", i)
		}
	}
}

func TestPhysicalOptionsCounts(t *testing.T) {
	nModels := len(llm.CompletionModels())
	f := &Filter{Predicate: "x"}
	if got := len(f.Physical()); got != nModels+1 {
		t.Errorf("filter physical options = %d, want %d", got, nModels+1)
	}
	fu := &Filter{UDF: func(*record.Record) (bool, error) { return true, nil }}
	if got := len(fu.Physical()); got != 1 {
		t.Errorf("udf filter options = %d", got)
	}
	c := &Convert{Target: clinical, Card: OneToMany}
	if got := len(c.Physical()); got != 2*nModels {
		t.Errorf("convert options = %d, want %d", got, 2*nModels)
	}
	for _, op := range []Logical{&Project{Fields: []string{"x"}}, &Limit{N: 1}, &Distinct{}, &Aggregate{}, &GroupBy{Keys: []string{"k"}}, &Sort{Field: "f"}, &Retrieve{Query: "q", K: 1}} {
		if got := len(op.Physical()); got != 1 {
			t.Errorf("%s options = %d, want 1", op.Kind(), got)
		}
	}
}

func TestScanExec(t *testing.T) {
	ctx, _, _ := newCtx(t, 1)
	recs := scanAll(t, ctx, biomedSource(t))
	if len(recs) != 11 {
		t.Fatalf("scan = %d records", len(recs))
	}
	if _, err := (&ScanExec{Source: biomedSource(t)}).Execute(ctx, recs); err == nil {
		t.Error("scan with input accepted")
	}
	st := ctx.Stats.Ops()
	if len(st) != 1 || st[0].OutRecords != 11 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLLMFilterGoldModel(t *testing.T) {
	ctx, svc, clock := newCtx(t, 1)
	recs := scanAll(t, ctx, biomedSource(t))
	ctx.SetCurrentOp(1)
	f := &LLMFilterExec{Filter: &Filter{Predicate: demoPredicate}, Model: "atlas-large"}
	out, err := f.Execute(ctx, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("filter kept %d, want 5", len(out))
	}
	if svc.TotalCalls() != 11 {
		t.Errorf("LLM calls = %d, want 11", svc.TotalCalls())
	}
	if clock.Elapsed() <= 0 {
		t.Error("clock did not advance")
	}
	st := ctx.Stats.Ops()
	if len(st) != 2 {
		t.Fatalf("stats ops = %d", len(st))
	}
	if st[1].LLMCalls != 11 || st[1].InRecords != 11 || st[1].OutRecords != 5 || st[1].CostUSD <= 0 {
		t.Errorf("filter stats = %+v", st[1])
	}
}

func TestLLMFilterParallelFasterThanSequential(t *testing.T) {
	run := func(par int) time.Duration {
		ctx, _, clock := newCtx(t, par)
		recs := scanAll(t, ctx, biomedSource(t))
		ctx.SetCurrentOp(1)
		f := &LLMFilterExec{Filter: &Filter{Predicate: demoPredicate}, Model: "atlas-large"}
		if _, err := f.Execute(ctx, recs); err != nil {
			t.Fatal(err)
		}
		return clock.Elapsed()
	}
	seq, par := run(1), run(8)
	if par >= seq {
		t.Errorf("parallel %v not faster than sequential %v", par, seq)
	}
}

func TestUDFFilter(t *testing.T) {
	ctx, svc, _ := newCtx(t, 1)
	recs := scanAll(t, ctx, biomedSource(t))
	ctx.SetCurrentOp(1)
	f := &UDFFilterExec{Filter: &Filter{
		UDF: func(r *record.Record) (bool, error) {
			return strings.Contains(r.GetString("contents"), "colorectal"), nil
		},
		UDFName: "contains_colorectal",
	}}
	out, err := f.Execute(ctx, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || len(out) >= len(recs) {
		t.Errorf("udf kept %d of %d", len(out), len(recs))
	}
	if svc.TotalCalls() != 0 {
		t.Error("udf filter made LLM calls")
	}
}

func TestUDFFilterError(t *testing.T) {
	ctx, _, _ := newCtx(t, 1)
	recs := scanAll(t, ctx, biomedSource(t))
	f := &UDFFilterExec{Filter: &Filter{UDF: func(*record.Record) (bool, error) {
		return false, fmt.Errorf("boom")
	}}}
	if _, err := f.Execute(ctx, recs); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestEmbedFilterCheaperThanLLM(t *testing.T) {
	ctxA, svcA, _ := newCtx(t, 1)
	recsA := scanAll(t, ctxA, biomedSource(t))
	ctxA.SetCurrentOp(1)
	ef := &EmbedFilterExec{Filter: &Filter{Predicate: demoPredicate}}
	kept, err := ef.Execute(ctxA, recsA)
	if err != nil {
		t.Fatal(err)
	}
	// The batch-mean threshold keeps some records and drops others.
	if len(kept) == 0 || len(kept) == len(recsA) {
		t.Errorf("embed filter kept %d of %d records", len(kept), len(recsA))
	}
	embedCost := svcA.TotalCost()

	ctxB, svcB, _ := newCtx(t, 1)
	recsB := scanAll(t, ctxB, biomedSource(t))
	ctxB.SetCurrentOp(1)
	lf := &LLMFilterExec{Filter: &Filter{Predicate: demoPredicate}, Model: "atlas-large"}
	if _, err := lf.Execute(ctxB, recsB); err != nil {
		t.Fatal(err)
	}
	if embedCost >= svcB.TotalCost() {
		t.Errorf("embed filter cost %.6f >= llm filter cost %.6f", embedCost, svcB.TotalCost())
	}
}

func TestLLMConvertBondedExtractsSixDatasets(t *testing.T) {
	ctx, _, _ := newCtx(t, 1)
	recs := scanAll(t, ctx, biomedSource(t))
	ctx.SetCurrentOp(1)
	filter := &LLMFilterExec{Filter: &Filter{Predicate: demoPredicate}, Model: "atlas-large"}
	kept, err := filter.Execute(ctx, recs)
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetCurrentOp(2)
	conv := &LLMConvertExec{
		Convert: &Convert{Target: clinical, Desc: clinical.Doc(), Card: OneToMany},
		Model:   "atlas-large", Bonded: true,
	}
	out, err := conv.Execute(ctx, kept)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 {
		t.Fatalf("convert produced %d records, want 6 (the paper's number)", len(out))
	}
	for _, r := range out {
		if r.Schema().Name() != "ClinicalData" {
			t.Errorf("output schema = %s", r.Schema().Name())
		}
		if r.GetString("url") == "" || r.GetString("name") == "" {
			t.Errorf("incomplete extraction: %s", r)
		}
		if len(r.Parents()) != 1 {
			t.Errorf("lineage missing: %v", r.Parents())
		}
	}
}

func TestLLMConvertOneToOne(t *testing.T) {
	ctx, _, _ := newCtx(t, 1)
	docs := corpus.GenerateLegal(corpus.LegalConfig{NumContracts: 4, IndemnificationRate: 0.5, Seed: 3})
	src, _ := dataset.NewDocsSource("legal", schema.TextFile, docs)
	recs := scanAll(t, ctx, src)
	target := schema.MustNew("Parties", "Contract parties.",
		schema.Field{Name: "party_a", Type: schema.String, Desc: "First party"},
		schema.Field{Name: "effective_date", Type: schema.String, Desc: "Effective date"},
	)
	ctx.SetCurrentOp(1)
	conv := &LLMConvertExec{Convert: &Convert{Target: target, Card: OneToOne}, Model: "atlas-large", Bonded: true}
	out, err := conv.Execute(ctx, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("one-to-one produced %d from 4", len(out))
	}
	for i, r := range out {
		truth := corpus.TruthOf(recs[i])
		if got := r.GetString("party_a"); got != truth.Fields["party_a"] {
			t.Errorf("record %d: party_a = %q, want %q", i, got, truth.Fields["party_a"])
		}
	}
}

func TestLLMConvertFieldwiseCostsMore(t *testing.T) {
	runCost := func(bonded bool) float64 {
		ctx, svc, _ := newCtx(t, 1)
		recs := scanAll(t, ctx, biomedSource(t))
		ctx.SetCurrentOp(1)
		conv := &LLMConvertExec{Convert: &Convert{Target: clinical, Card: OneToMany}, Model: "atlas-medium", Bonded: bonded}
		if _, err := conv.Execute(ctx, recs[:4]); err != nil {
			t.Fatal(err)
		}
		return svc.TotalCost()
	}
	if b, fw := runCost(true), runCost(false); fw <= b {
		t.Errorf("fieldwise cost %.6f <= bonded cost %.6f", fw, b)
	}
}

func TestConvertNoNewFieldsPassesThrough(t *testing.T) {
	ctx, svc, _ := newCtx(t, 1)
	recs := scanAll(t, ctx, biomedSource(t))
	ctx.SetCurrentOp(1)
	// Target is a subset of PDFFile fields: nothing to compute.
	sub, _ := schema.PDFFile.Project("filename")
	conv := &LLMConvertExec{Convert: &Convert{Target: sub, Card: OneToOne}, Model: "atlas-large", Bonded: true}
	out, err := conv.Execute(ctx, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(recs) {
		t.Fatalf("passthrough produced %d", len(out))
	}
	if svc.TotalCalls() != 0 {
		t.Error("passthrough made LLM calls")
	}
}

func TestProjectLimitDistinctSort(t *testing.T) {
	ctx, _, _ := newCtx(t, 1)
	recs := scanAll(t, ctx, biomedSource(t))

	ctx.SetCurrentOp(1)
	proj, err := (&ProjectExec{Project: &Project{Fields: []string{"filename"}}}).Execute(ctx, recs)
	if err != nil {
		t.Fatal(err)
	}
	if proj[0].Schema().Len() != 1 {
		t.Errorf("projected schema len = %d", proj[0].Schema().Len())
	}

	ctx.SetCurrentOp(2)
	lim, err := (&LimitExec{Limit: &Limit{N: 3}}).Execute(ctx, proj)
	if err != nil || len(lim) != 3 {
		t.Fatalf("limit = %d, %v", len(lim), err)
	}

	ctx.SetCurrentOp(3)
	dup := append(append([]*record.Record{}, lim...), lim[0].Clone())
	dis, err := (&DistinctExec{Distinct: &Distinct{Fields: []string{"filename"}}}).Execute(ctx, dup)
	if err != nil || len(dis) != 3 {
		t.Fatalf("distinct = %d, %v", len(dis), err)
	}

	ctx.SetCurrentOp(4)
	sorted, err := (&SortExec{Sort: &Sort{Field: "filename"}}).Execute(ctx, dis)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].GetString("filename") > sorted[i].GetString("filename") {
			t.Error("not sorted ascending")
		}
	}
	sortedDesc, err := (&SortExec{Sort: &Sort{Field: "filename", Descending: true}}).Execute(ctx, dis)
	if err != nil {
		t.Fatal(err)
	}
	if sortedDesc[0].GetString("filename") != sorted[len(sorted)-1].GetString("filename") {
		t.Error("descending sort wrong")
	}
}

func TestAggregateExec(t *testing.T) {
	s := schema.MustNew("N", "", schema.Field{Name: "v", Type: schema.Float})
	recs := []*record.Record{
		record.MustNew(s, map[string]any{"v": 1.0}),
		record.MustNew(s, map[string]any{"v": 2.0}),
		record.MustNew(s, map[string]any{"v": 3.0}),
	}
	cases := []struct {
		f    AggFunc
		want float64
	}{
		{AggCount, 3}, {AggSum, 6}, {AggAvg, 2}, {AggMin, 1}, {AggMax, 3},
	}
	for _, c := range cases {
		ctx, _, _ := newCtx(t, 1)
		out, err := (&AggregateExec{Aggregate: &Aggregate{Func: c.f, Field: "v"}}).Execute(ctx, recs)
		if err != nil || len(out) != 1 {
			t.Fatalf("%v: %v, %v", c.f, out, err)
		}
		if got := out[0].GetFloat("value"); got != c.want {
			t.Errorf("%v = %v, want %v", c.f, got, c.want)
		}
		if out[0].GetInt("count") != 3 {
			t.Errorf("%v count = %d", c.f, out[0].GetInt("count"))
		}
	}
}

func TestGroupByExec(t *testing.T) {
	s := schema.MustNew("L", "",
		schema.Field{Name: "hood", Type: schema.String},
		schema.Field{Name: "price", Type: schema.Float})
	recs := []*record.Record{
		record.MustNew(s, map[string]any{"hood": "A", "price": 100.0}),
		record.MustNew(s, map[string]any{"hood": "B", "price": 300.0}),
		record.MustNew(s, map[string]any{"hood": "A", "price": 200.0}),
	}
	ctx, _, _ := newCtx(t, 1)
	out, err := (&GroupByExec{GroupBy: &GroupBy{Keys: []string{"hood"}, Func: AggAvg, Field: "price"}}).Execute(ctx, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("groups = %d", len(out))
	}
	if out[0].GetString("hood") != "A" || out[0].GetFloat("value") != 150 {
		t.Errorf("group A = %v / %v", out[0].GetString("hood"), out[0].GetFloat("value"))
	}
	if out[1].GetString("hood") != "B" || out[1].GetFloat("value") != 300 {
		t.Errorf("group B wrong")
	}
	empty, err := (&GroupByExec{GroupBy: &GroupBy{Keys: []string{"hood"}}}).Execute(ctx, nil)
	if err != nil || empty != nil {
		t.Errorf("empty groupby = %v, %v", empty, err)
	}
}

func TestRetrieveExec(t *testing.T) {
	ctx, svc, _ := newCtx(t, 1)
	docs := corpus.GenerateRealEstate(corpus.DefaultRealEstate())
	src, _ := dataset.NewDocsSource("re", schema.TextFile, docs)
	recs := scanAll(t, ctx, src)
	ctx.SetCurrentOp(1)
	ret := &RetrieveExec{Retrieve: &Retrieve{Query: "modern renovated kitchen quartz countertops", K: 10}}
	out, err := ret.Execute(ctx, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("retrieve = %d", len(out))
	}
	// Retrieval should be enriched in modern listings vs the base rate
	// (35%).
	modern := 0
	for _, r := range out {
		if corpus.TruthOf(r).Labels[corpus.ModernLabel] {
			modern++
		}
	}
	if modern < 6 {
		t.Errorf("retrieved %d/10 modern listings; retrieval not better than chance", modern)
	}
	if svc.TotalCalls() != len(recs)+1 {
		t.Errorf("embed calls = %d, want %d", svc.TotalCalls(), len(recs)+1)
	}
}

func TestEstimatesDirectionallyCorrect(t *testing.T) {
	in := Estimate{Cardinality: 100, AvgTokens: 500, Quality: 1}
	large := (&LLMFilterExec{Filter: &Filter{Predicate: "p"}, Model: "atlas-large"}).Estimate(in)
	small := (&LLMFilterExec{Filter: &Filter{Predicate: "p"}, Model: "pigeon-7b"}).Estimate(in)
	if large.CostUSD <= small.CostUSD {
		t.Error("large filter should cost more")
	}
	if large.TimeSec <= small.TimeSec {
		t.Error("large filter should be slower")
	}
	if large.Quality <= small.Quality {
		t.Error("large filter should be higher quality")
	}
	if large.Cardinality != 50 {
		t.Errorf("default selectivity wrong: %v", large.Cardinality)
	}

	calib := &LLMFilterExec{Filter: &Filter{Predicate: "p"}, Model: "atlas-large", SelEstimate: 0.1}
	if got := calib.Estimate(in).Cardinality; got != 10 {
		t.Errorf("calibrated cardinality = %v", got)
	}

	conv := &Convert{Target: clinical, Card: OneToMany}
	bonded := (&LLMConvertExec{Convert: conv, Model: "atlas-medium", Bonded: true}).Estimate(in)
	fieldwise := (&LLMConvertExec{Convert: conv, Model: "atlas-medium", Bonded: false}).Estimate(in)
	if fieldwise.CostUSD <= bonded.CostUSD {
		t.Error("fieldwise should cost more")
	}
	if fieldwise.Quality <= bonded.Quality {
		t.Error("fieldwise should be higher quality")
	}

	lim := (&LimitExec{Limit: &Limit{N: 5}}).Estimate(in)
	if lim.Cardinality != 5 {
		t.Errorf("limit estimate = %v", lim.Cardinality)
	}
	agg := (&AggregateExec{Aggregate: &Aggregate{Func: AggCount}}).Estimate(in)
	if agg.Cardinality != 1 {
		t.Errorf("aggregate estimate = %v", agg.Cardinality)
	}
	ret := (&RetrieveExec{Retrieve: &Retrieve{Query: "q", K: 7}}).Estimate(in)
	if ret.Cardinality != 7 {
		t.Errorf("retrieve estimate = %v", ret.Cardinality)
	}
}

func TestRunStatsTotals(t *testing.T) {
	ctx, _, _ := newCtx(t, 1)
	recs := scanAll(t, ctx, biomedSource(t))
	ctx.SetCurrentOp(1)
	f := &LLMFilterExec{Filter: &Filter{Predicate: demoPredicate}, Model: "atlas-small"}
	if _, err := f.Execute(ctx, recs); err != nil {
		t.Fatal(err)
	}
	st := ctx.Stats
	if st.TotalLLMCalls() != 11 {
		t.Errorf("TotalLLMCalls = %d", st.TotalLLMCalls())
	}
	if st.TotalCost() <= 0 {
		t.Errorf("TotalCost = %v", st.TotalCost())
	}
}

func TestDescribeStrings(t *testing.T) {
	cases := []struct {
		op   Logical
		want string
	}{
		{&Filter{Predicate: "p"}, `filter("p")`},
		{&Filter{UDF: func(*record.Record) (bool, error) { return true, nil }, UDFName: "f"}, "filter(udf=f)"},
		{&Convert{Target: clinical, Card: OneToMany}, "convert(ClinicalData, cardinality=ONE_TO_MANY)"},
		{&Limit{N: 4}, "limit(4)"},
		{&Project{Fields: []string{"a", "b"}}, "project(a, b)"},
		{&Distinct{}, "distinct()"},
		{&Aggregate{Func: AggCount}, "aggregate(count)"},
		{&Aggregate{Func: AggAvg, Field: "price"}, "aggregate(avg(price))"},
		{&GroupBy{Keys: []string{"k"}, Func: AggSum, Field: "v"}, "groupby(k; sum(v))"},
		{&Sort{Field: "x", Descending: true}, "sort(x desc)"},
		{&Retrieve{Query: "q", K: 3}, `retrieve("q", k=3)`},
	}
	for _, c := range cases {
		if got := c.op.Describe(); got != c.want {
			t.Errorf("Describe = %q, want %q", got, c.want)
		}
	}
}

// TestRunParallelRecoversWorkerPanic: a panic on one of runParallel's
// worker goroutines comes back as a *PanicError instead of killing the
// process, at every width.
func TestRunParallelRecoversWorkerPanic(t *testing.T) {
	recs, err := biomedSource(t).Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		ctx, _, _ := newCtx(t, p)
		_, err := runParallel(ctx, recs, func(r *record.Record) (int, error) {
			if r == recs[4] {
				panic("bad record")
			}
			return 0, nil
		})
		var perr *PanicError
		if !errors.As(err, &perr) || perr.Value != "bad record" {
			t.Fatalf("P=%d: error %v, want the *PanicError of the bad record", p, err)
		}
	}
}
