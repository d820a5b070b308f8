package optimizer

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/ops"
	"repro/internal/schema"
	"repro/internal/simclock"
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

func newCtx(t *testing.T) (*ops.Ctx, *llm.Service) {
	t.Helper()
	svc := llm.NewService()
	clock := simclock.NewSim()
	client, err := llm.NewRetryClient(svc, clock, 3, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return &ops.Ctx{Client: client, Svc: svc, Clock: clock, Parallelism: 1, Stats: ops.NewRunStats()}, svc
}

func TestInitialEstimate(t *testing.T) {
	chain := demoChain(t)
	est, err := InitialEstimate(chain)
	if err != nil {
		t.Fatal(err)
	}
	if est.Cardinality != 11 {
		t.Errorf("cardinality = %v, want 11", est.Cardinality)
	}
	if est.AvgTokens <= 50 {
		t.Errorf("avg tokens = %v, implausibly small", est.AvgTokens)
	}
	if est.Quality != 1 {
		t.Errorf("quality = %v", est.Quality)
	}
}

func TestPlanSpaceSize(t *testing.T) {
	chain := demoChain(t)
	nModels := len(llm.CompletionModels())
	want := 1 * (nModels + 1) * (2 * nModels)
	if got := PlanSpaceSize(chain); got != want {
		t.Errorf("plan space = %d, want %d", got, want)
	}
}

func TestEnumerateWithoutPruningCoversSpace(t *testing.T) {
	chain := demoChain(t)
	opt := New(Options{})
	_, plans, err := opt.Optimize(chain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != PlanSpaceSize(chain) {
		t.Errorf("enumerated %d plans, want %d", len(plans), PlanSpaceSize(chain))
	}
}

func TestPruningShrinksButKeepsExtremes(t *testing.T) {
	chain := demoChain(t)
	full, fullPlans, err := New(Options{}).Optimize(chain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pruned, prunedPlans, err := New(Options{Pruning: true}).Optimize(chain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prunedPlans) >= len(fullPlans) {
		t.Errorf("pruning kept %d of %d plans", len(prunedPlans), len(fullPlans))
	}
	if pruned.Quality() != full.Quality() {
		t.Errorf("pruning lost the max-quality plan: %v vs %v", pruned.Quality(), full.Quality())
	}
	// The cheapest plan also survives pruning.
	fullCheap, _ := MinCost{}.Choose(fullPlans)
	prunedCheap, _ := MinCost{}.Choose(prunedPlans)
	if prunedCheap.Cost() != fullCheap.Cost() {
		t.Errorf("pruning lost the min-cost plan: %v vs %v", prunedCheap.Cost(), fullCheap.Cost())
	}
}

func TestPoliciesPickDifferentPlans(t *testing.T) {
	chain := demoChain(t)
	opt := New(Options{})
	q, _, err := opt.Optimize(chain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := opt.Optimize(chain, MinCost{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tt, _, err := opt.Optimize(chain, MinTime{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "atlas-large") {
		t.Errorf("max-quality plan = %s", q)
	}
	if strings.Contains(c.String(), "atlas-large") {
		t.Errorf("min-cost plan uses the priciest model: %s", c)
	}
	if q.Cost() <= c.Cost() {
		t.Errorf("quality plan cost %v <= cost plan cost %v", q.Cost(), c.Cost())
	}
	if q.Quality() <= c.Quality() {
		t.Errorf("quality plan quality %v <= cost plan quality %v", q.Quality(), c.Quality())
	}
	if tt.Time() > c.Time() {
		t.Errorf("min-time plan slower than min-cost plan")
	}
}

func TestConstrainedPolicies(t *testing.T) {
	chain := demoChain(t)
	opt := New(Options{})
	_, plans, err := opt.Optimize(chain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	minCost, maxCost := math.Inf(1), math.Inf(-1)
	minTime, maxTime := math.Inf(1), math.Inf(-1)
	for _, p := range plans {
		minCost, maxCost = math.Min(minCost, p.Cost()), math.Max(maxCost, p.Cost())
		minTime, maxTime = math.Min(minTime, p.Time()), math.Max(maxTime, p.Time())
	}

	// A budget between min and max cost must be met and beat pure min-cost
	// quality.
	budget := (minCost + maxCost) / 2
	bp, err := MaxQualityAtCost{BudgetUSD: budget}.Choose(plans)
	if err != nil {
		t.Fatal(err)
	}
	if bp.ConstraintViolated {
		t.Error("feasible budget flagged as violated")
	}
	if bp.Cost() > budget {
		t.Errorf("plan cost %v exceeds budget %v", bp.Cost(), budget)
	}
	cheapest, _ := MinCost{}.Choose(plans)
	if bp.Quality() < cheapest.Quality() {
		t.Errorf("budgeted plan quality %v below cheapest %v", bp.Quality(), cheapest.Quality())
	}

	// An impossible budget falls back and flags.
	ip, err := MaxQualityAtCost{BudgetUSD: minCost / 2}.Choose(plans)
	if err != nil {
		t.Fatal(err)
	}
	if !ip.ConstraintViolated {
		t.Error("infeasible budget not flagged")
	}

	// Time cap.
	cap := (minTime + maxTime) / 2
	tp, err := MaxQualityAtTime{CapSec: cap}.Choose(plans)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Time() > cap || tp.ConstraintViolated {
		t.Errorf("time-capped plan = %vs cap %vs violated=%v", tp.Time(), cap, tp.ConstraintViolated)
	}

	// Quality floor.
	qf, err := MinCostAtQuality{Floor: 0.9}.Choose(plans)
	if err != nil {
		t.Fatal(err)
	}
	if qf.Quality() < 0.9 || qf.ConstraintViolated {
		t.Errorf("quality-floor plan = %v violated=%v", qf.Quality(), qf.ConstraintViolated)
	}
	best, _ := MaxQuality{}.Choose(plans)
	if qf.Cost() > best.Cost() {
		t.Errorf("floor plan should not cost more than the champion")
	}
}

func TestCalibrationImprovesCardinality(t *testing.T) {
	chain := demoChain(t)
	ctx, svc := newCtx(t)
	opt := New(Options{SampleSize: 11})
	chosen, _, err := opt.Optimize(chain, MaxQuality{}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	// With full-corpus calibration the filter selectivity is the true 5/11
	// and convert fanout 6/5, so the final cardinality estimate is 6.
	if got := chosen.Final.Cardinality; got < 5.9 || got > 6.1 {
		t.Errorf("calibrated final cardinality = %v, want ~6", got)
	}
	if svc.TotalCalls() == 0 {
		t.Error("calibration made no LLM calls")
	}

	// Without calibration the default estimates are generic.
	plain, _, err := New(Options{}).Optimize(chain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Final.Cardinality == chosen.Final.Cardinality {
		t.Error("calibration had no effect on estimates")
	}
}

func TestCalibrateSampleSmallerThanCorpus(t *testing.T) {
	chain := demoChain(t)
	ctx, _ := newCtx(t)
	calib, err := Calibrate(chain, 4, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := calib[1]; !ok {
		t.Error("no filter calibration")
	}
	if c := calib[1].Selectivity; c <= 0 || c > 1 {
		t.Errorf("selectivity = %v", c)
	}
}

func TestOptimizeValidation(t *testing.T) {
	chain := demoChain(t)
	if _, _, err := New(Options{}).Optimize(nil, MaxQuality{}, nil); err == nil {
		t.Error("empty chain accepted")
	}
	if _, _, err := New(Options{}).Optimize(chain, nil, nil); err == nil {
		t.Error("nil policy accepted")
	}
	if _, _, err := New(Options{SampleSize: 2}).Optimize(chain, MaxQuality{}, nil); err == nil {
		t.Error("sampling without ctx accepted")
	}
}

func TestChampionPlan(t *testing.T) {
	chain := demoChain(t)
	phys, err := ChampionPlan(chain)
	if err != nil {
		t.Fatal(err)
	}
	if len(phys) != 3 {
		t.Fatalf("champion plan len = %d", len(phys))
	}
	if !strings.Contains(phys[1].ID(), "atlas-large") {
		t.Errorf("champion filter = %s", phys[1].ID())
	}
}

func TestFrontierProperties(t *testing.T) {
	chain := demoChain(t)
	_, plans, err := New(Options{}).Optimize(chain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := Frontier(plans)
	if len(front) == 0 || len(front) > len(plans) {
		t.Fatalf("frontier = %d of %d", len(front), len(plans))
	}
	// No frontier plan dominates another.
	for i, a := range front {
		for j, b := range front {
			if i != j && dominates(a, b) {
				t.Errorf("frontier plan %d dominates %d", i, j)
			}
		}
	}
	// Every non-frontier plan is dominated by some frontier plan or ties.
	inFront := map[*Plan]bool{}
	for _, p := range front {
		inFront[p] = true
	}
	for _, p := range plans {
		if inFront[p] {
			continue
		}
		dominated := false
		for _, f := range front {
			if dominates(f, p) || equalEst(f, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Errorf("non-frontier plan %s not dominated", p)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		name  string
		param float64
		want  string
	}{
		{"max quality", 0, "max-quality"},
		{"MIN_COST", 0, "min-cost"},
		{"fastest", 0, "min-time"},
		{"quality-at-cost", 0.25, "quality-at-cost"},
		{"quality at time", 60, "quality-at-time"},
		{"cost at quality", 0.8, "cost-at-quality"},
		{"time at quality", 0.8, "time-at-quality"},
	}
	for _, c := range cases {
		p, err := ParsePolicy(c.name, c.param)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", c.name, err)
			continue
		}
		if p.Name() != c.want {
			t.Errorf("ParsePolicy(%q) = %s, want %s", c.name, p.Name(), c.want)
		}
		if p.Describe() == "" {
			t.Errorf("%s: empty Describe", p.Name())
		}
	}
	bad := []struct {
		name  string
		param float64
	}{
		{"bogus", 0}, {"quality-at-cost", 0}, {"cost-at-quality", 2},
	}
	for _, c := range bad {
		if _, err := ParsePolicy(c.name, c.param); err == nil {
			t.Errorf("ParsePolicy(%q, %v) accepted", c.name, c.param)
		}
	}
}

func TestPlanString(t *testing.T) {
	chain := demoChain(t)
	p, _, err := New(Options{}).Optimize(chain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if !strings.Contains(s, "scan(sigmod-demo)") || !strings.Contains(s, " -> ") {
		t.Errorf("plan string = %q", s)
	}
}

func TestChooseEmpty(t *testing.T) {
	for _, p := range []Policy{MaxQuality{}, MinCost{}, MinTime{}, MaxQualityAtCost{1}} {
		if _, err := p.Choose(nil); err == nil {
			t.Errorf("%s: empty choose accepted", p.Name())
		}
	}
}
