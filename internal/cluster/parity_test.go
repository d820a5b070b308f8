package cluster

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/ops"
	"repro/internal/serve"
	"repro/pz"
)

// localJSON is the answer local execution on ctx gives to spec itself,
// partition fan-out included: the fan-out shortens time estimates, so
// time-sensitive policies may pick a different plan than for the
// unpartitioned query.
func localJSON(t testing.TB, ctx *pz.Context, spec *serve.Spec) []byte {
	t.Helper()
	ds, err := spec.Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := spec.ParsePolicy()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctx.Execute(ds, policy)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := serve.RecordsJSON(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestClusterLocalParityMatrix: across policies and suffix shapes, a
// clustered query either returns exactly the records of the local run or
// declines. Only the policies whose plan filters with the adaptive
// embed-filter, which is not record-wise, decline.
func TestClusterLocalParityMatrix(t *testing.T) {
	path := writeTicketCorpus(t, 80)
	reg := NewRegistry(RegistryConfig{})
	startWorker(t, reg, "a", path, nil)
	startWorker(t, reg, "b", path, nil)
	coord := newTestCoordinator(t, reg, Config{})

	policies := []struct {
		name     string
		param    float64
		declines bool
	}{
		{"max-quality", 0, false},
		{"min-cost", 0, true},
		{"min-time", 0, true},
		{"quality-at-cost", 0.01, false},
		{"quality-at-time", 35, false},
		{"cost-at-quality", 0.8, false},
		{"cost-at-quality", 0.95, false},
		{"time-at-quality", 0.8, false},
		{"time-at-quality", 0.95, false},
	}
	suffixes := []struct {
		name string
		ops  []serve.OpSpec
	}{
		{"none", nil},
		{"limit", []serve.OpSpec{{Op: "limit", N: 5}}},
		{"sort", []serve.OpSpec{{Op: "sort", Field: "filename", Descending: true}}},
		{"retrieve", []serve.OpSpec{{Op: "retrieve", Query: "refund for a duplicate charge", K: 4}}},
	}
	for _, p := range policies {
		for _, s := range suffixes {
			t.Run(fmt.Sprintf("%s %g/%s", p.name, p.param, s.name), func(t *testing.T) {
				spec := ticketSpec(4, s.ops...)
				spec.Policy, spec.PolicyParam = p.name, p.param
				dres, ok, err := coord.TryExecute(context.Background(), coordinatorContext(t, path), spec, 4)
				if err != nil {
					t.Fatal(err)
				}
				if ok == p.declines {
					t.Fatalf("ok=%v, want decline=%v", ok, p.declines)
				}
				if !ok {
					return
				}
				if got, want := distributedJSON(t, dres), localJSON(t, coordinatorContext(t, path), spec); !bytes.Equal(got, want) {
					t.Fatalf("clustered records diverge from the local run:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
	if got := reg.Counters().Get("cluster_partition_failures"); got != 0 {
		t.Errorf("cluster_partition_failures = %d, want 0", got)
	}
}

// TestCascadeChampionDeclines: over a corpus with an embedding sidecar,
// a quality-floor policy picks the cascade filter, whose calibrated
// thresholds a worker cannot rebuild from the spec. The coordinator must
// decline before scattering anything, so no worker fails an attempt and
// none is evicted.
func TestCascadeChampionDeclines(t *testing.T) {
	path := writeTicketCorpus(t, 400)
	if _, err := corpus.EmbedNDJSON(path, llm.EmbedDim, llm.EmbedVector); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(RegistryConfig{})
	startWorker(t, reg, "a", path, nil)
	startWorker(t, reg, "b", path, nil)
	coord := newTestCoordinator(t, reg, Config{})

	pzctx := coordinatorContext(t, path)
	spec := ticketSpec(4)
	spec.Policy, spec.PolicyParam = "cost-at-quality", 0.95
	ds, err := spec.Build(pzctx)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := spec.ParsePolicy()
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := pzctx.OptimizeOnly(ds, policy)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.Ops[1].(*ops.CascadeFilterExec); !ok {
		t.Fatalf("local plan %s does not filter with a cascade", plan)
	}

	dres, reason, err := coord.Scatter(context.Background(), spec, optimize(t, pzctx, spec), 4)
	if err != nil || reason != "not_streamable" || dres != nil {
		t.Fatalf("cascade champion: dres=%v reason=%q err=%v, want not_streamable", dres, reason, err)
	}
	c := reg.Counters()
	for name, want := range map[string]int64{
		"cluster_queries_not_streamable": 1,
		"cluster_partitions_scattered":   0,
		"cluster_partition_failures":     0,
		"cluster_workers_lost":           0,
	} {
		if got := c.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if reg.Len() != 2 {
		t.Errorf("%d workers registered, want both", reg.Len())
	}
}

// TestScatterConvertProjectPrefix: a prefix that extracts and projects
// crosses the wire as a sub-plan spec rebuilt from the plan's logical
// operators, and still returns the local run's records.
func TestScatterConvertProjectPrefix(t *testing.T) {
	path := writeTicketCorpus(t, 60)
	reg := NewRegistry(RegistryConfig{})
	startWorker(t, reg, "a", path, nil)
	startWorker(t, reg, "b", path, nil)
	coord := newTestCoordinator(t, reg, Config{})

	for _, p := range []struct {
		name  string
		param float64
	}{{"max-quality", 0}, {"cost-at-quality", 0.8}} {
		t.Run(p.name, func(t *testing.T) {
			spec := ticketSpec(4,
				serve.OpSpec{Op: "convert", Schema: "TicketRoute", Doc: "Routing fields extracted from a customer-support ticket.",
					Fields:       []string{"ticket_id", "priority", "escalations:int"},
					Descriptions: []string{"The ticket identifier (TCK-...)", "The ticket priority (P1..P4)", "How often the ticket was escalated"}},
				serve.OpSpec{Op: "project", Fields: []string{"ticket_id", "priority", "escalations"}},
				serve.OpSpec{Op: "sort", Field: "ticket_id", Descending: true})
			spec.Policy, spec.PolicyParam = p.name, p.param
			dres, ok, err := coord.TryExecute(context.Background(), coordinatorContext(t, path), spec, 4)
			if err != nil || !ok {
				t.Fatalf("TryExecute: ok=%v err=%v", ok, err)
			}
			if !strings.Contains(dres.Plan, "3 prefix + 1 suffix") {
				t.Errorf("plan %q does not scatter filter, convert and project", dres.Plan)
			}
			if got, want := distributedJSON(t, dres), localJSON(t, coordinatorContext(t, path), spec); !bytes.Equal(got, want) {
				t.Fatalf("clustered records diverge from the local run:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestScatterReorderedFilters: when estimates make the optimizer run the
// query's filters in another order, the partitions run them in the plan's
// order too, each with the model the plan gave it. The op-ID signature
// alone cannot tell the orders apart: a sub-plan in the query's order
// matches it with the two models swapped between the predicates.
func TestScatterReorderedFilters(t *testing.T) {
	path := writeTicketCorpus(t, 60)
	reg := NewRegistry(RegistryConfig{})
	startWorker(t, reg, "a", path, nil)
	startWorker(t, reg, "b", path, nil)
	coord := newTestCoordinator(t, reg, Config{})

	newContext := func() *pz.Context {
		ctx, err := pz.NewContext(pz.Config{Parallelism: 2,
			EstimatePriors: map[int]pz.OpEstimate{1: {Selectivity: 0.9}, 2: {Selectivity: 0.05}}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.RegisterNDJSON("tickets", path); err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	pzctx := newContext()
	const billing = "The ticket is about billing or an invoice"
	spec := ticketSpec(4, serve.OpSpec{Op: "filter", Predicate: billing})
	spec.Policy, spec.PolicyParam = "cost-at-quality", 0.94
	ds, err := spec.Build(pzctx)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := spec.ParsePolicy()
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := pzctx.OptimizeOnly(ds, policy)
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := plan.Logical[1].(*ops.Filter); !ok || f.Predicate != billing {
		t.Fatalf("plan %s does not run the more selective filter first", plan)
	}

	dres, ok, err := coord.TryExecute(context.Background(), pzctx, spec, 4)
	if err != nil || !ok {
		t.Fatalf("TryExecute: ok=%v err=%v", ok, err)
	}
	if got, want := distributedJSON(t, dres), localJSON(t, newContext(), spec); !bytes.Equal(got, want) {
		t.Fatalf("clustered records diverge from the local run:\n got %s\nwant %s", got, want)
	}
	if got := reg.Counters().Get("cluster_partition_failures"); got != 0 {
		t.Errorf("cluster_partition_failures = %d, want 0", got)
	}
}
