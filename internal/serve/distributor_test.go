package serve

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/trace"
	"repro/pz"
)

// fakeDistributor records the plans it is offered and answers each with
// a fixed outcome: a gathered result when res is set, else reason and
// err.
type fakeDistributor struct {
	res    *DistResult
	reason string
	err    error

	mu      sync.Mutex
	offered []*exec.Optimized
}

func (f *fakeDistributor) Scatter(_ context.Context, _ *Spec, opt *exec.Optimized, _ int) (*DistResult, string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.offered = append(f.offered, opt)
	return f.res, f.reason, f.err
}

func (f *fakeDistributor) Workers() []WorkerView { return nil }

func (f *fakeDistributor) plans() []*exec.Optimized {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.offered
}

// sampledServer serves the streaming workload with sentinel calibration
// (SampleSize 10), offering every plan to cluster when it is not nil.
func sampledServer(t *testing.T, cluster Distributor) (*Server, *pz.Context, string) {
	t.Helper()
	pzctx := newStreamContext(t, 24, pz.Config{Parallelism: 2, SampleSize: 10})
	srv, err := New(Config{Context: pzctx, Cluster: cluster})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, pzctx, ts.URL
}

// TestClusterFallbackRunsTheSamePlan: a query the cluster fails or
// declines runs locally on the plan already chosen, so it is billed what
// a local-only run is billed, the engine spends no more than that, and
// the trace says why the cluster did not run it.
func TestClusterFallbackRunsTheSamePlan(t *testing.T) {
	_, _, localURL := sampledServer(t, nil)
	local := runStreamQuery(t, localURL)
	var localDoc trace.Document
	getJSON(t, localURL+"/v1/jobs/"+local.ID+"/trace", &localDoc)
	if opt := localDoc.Trace.FindAll(trace.KindOptimize); len(opt) != 1 || opt[0].CostUSD <= 0 {
		t.Fatalf("local run's optimize spans %v, want one charged calibration", opt)
	}
	for _, tc := range []struct {
		name   string
		fake   *fakeDistributor
		errors int64
		trace  string
	}{
		{"error", &fakeDistributor{err: errors.New("worker lost")}, 1, "error"},
		{"declined", &fakeDistributor{reason: "not_streamable"}, 0, "not_streamable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, pzctx, url := sampledServer(t, tc.fake)
			view := runStreamQuery(t, url)
			if got := srv.Counters().Get("cluster_query_errors"); got != tc.errors {
				t.Errorf("cluster_query_errors = %d, want %d", got, tc.errors)
			}
			if view.Result.CostUSD != local.Result.CostUSD || view.Result.Plan != local.Result.Plan {
				t.Errorf("billed $%.6f for %s, a local-only run $%.6f for %s",
					view.Result.CostUSD, view.Result.Plan, local.Result.CostUSD, local.Result.Plan)
			}
			if total := pzctx.TotalCost(); math.Abs(total-view.Result.CostUSD) > 1e-9 {
				t.Errorf("TotalCost $%.6f, billed $%.6f", total, view.Result.CostUSD)
			}
			var doc trace.Document
			getJSON(t, url+"/v1/jobs/"+view.ID+"/trace", &doc)
			if got := doc.Trace.Attrs["cluster_declined"]; got != tc.trace {
				t.Errorf("cluster_declined = %q, want %q", got, tc.trace)
			}
		})
	}
}

// TestClusterOfferedCachedPlan: a repeated query offers the cluster the
// cached plan, with no optimize span, and the cluster's result settles
// the job as a plan-cache hit.
func TestClusterOfferedCachedPlan(t *testing.T) {
	fake := &fakeDistributor{res: &DistResult{Plan: "fake-scatter", CostUSD: 0.5,
		Trace: &trace.Span{Kind: trace.KindQuery, Name: "cluster-scatter"}}}
	srv, _, url := sampledServer(t, fake)
	first := runStreamQuery(t, url)
	second := runStreamQuery(t, url)
	offered := fake.plans()
	if len(offered) != 2 {
		t.Fatalf("cluster was offered %d plans, want 2", len(offered))
	}
	if offered[0].Span == nil || offered[1].Span != nil {
		t.Errorf("optimize spans offered: %v then %v, want one then none", offered[0].Span, offered[1].Span)
	}
	if offered[1].Plan != offered[0].Plan {
		t.Error("the repeat was offered a different plan than the one the first run cached")
	}
	if first.Result.PlanCached || first.Result.Candidates == 0 || !second.Result.PlanCached ||
		second.Result.Candidates != first.Result.Candidates {
		t.Errorf("plan_cached/candidates: first %v/%d, second %v/%d", first.Result.PlanCached,
			first.Result.Candidates, second.Result.PlanCached, second.Result.Candidates)
	}
	if second.Result.Plan != "fake-scatter" {
		t.Errorf("second run plan %q, want the cluster's", second.Result.Plan)
	}
	if got := srv.Counters().Get("plan_cache_hits"); got != 1 {
		t.Errorf("plan_cache_hits = %d, want 1", got)
	}
}

// TestTotalCostGauge: a local server's cost gauge is its engine's total;
// a distributed run adds what the cluster reported spending beyond the
// calibration the engine paid.
func TestTotalCostGauge(t *testing.T) {
	gauge := func(url string) float64 {
		var m Metrics
		getJSON(t, url+"/metrics?format=json", &m)
		return m.TotalCost
	}
	_, pzctx, url := sampledServer(t, nil)
	view := runStreamQuery(t, url)
	if got, want := gauge(url), pzctx.TotalCost(); got != want || math.Abs(want-view.Result.CostUSD) > 1e-9 {
		t.Errorf("local gauge $%.6f, TotalCost $%.6f, billed $%.6f", got, want, view.Result.CostUSD)
	}
	fake := &fakeDistributor{res: &DistResult{Plan: "fake-scatter", CostUSD: 0.5,
		Trace: &trace.Span{Kind: trace.KindQuery, Name: "cluster-scatter"}}}
	_, pzctx, url = sampledServer(t, fake)
	runStreamQuery(t, url)
	runStreamQuery(t, url)
	calibration := fake.plans()[0].CostUSD
	if got, want := gauge(url), 0.5+0.5+pzctx.TotalCost()-calibration; math.Abs(got-want) > 1e-12 || calibration <= 0 {
		t.Errorf("clustered gauge $%.6f, want $%.6f (calibration $%.6f)", got, want, calibration)
	}
}
