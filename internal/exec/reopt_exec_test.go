package exec

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/internal/trace"
)

// reoptChain builds the canonical re-orderable shape over the support
// corpus: scan, a broad filter that keeps everything, then a narrow one.
func reoptChain(t *testing.T) []ops.Logical {
	t.Helper()
	src := domainSource(t, "support", 48, 9)
	return []ops.Logical{
		&ops.Scan{Source: src},
		&ops.Filter{Predicate: "This is a support ticket"},
		&ops.Filter{Predicate: "The ticket is urgent and needs immediate attention"},
	}
}

// misSeeded arms re-optimization on cfg and inverts the true
// selectivities: the broad filter is claimed selective and the narrow one
// permissive, so the champion runs broad-first — the order the hot swap
// must recover from.
func misSeeded(cfg Config) Config {
	cfg.ReoptAfterBatches = 2
	cfg.EstimatePriors = optimizer.Calibration{1: {Selectivity: 0.05}, 2: {Selectivity: 0.95}}
	return cfg
}

func reoptSpanOf(t *testing.T, res *Result) *trace.Span {
	t.Helper()
	if res.Trace == nil {
		t.Fatal("run produced no trace")
	}
	for _, sp := range res.Trace.Children {
		if sp.Kind == trace.KindReopt {
			return sp
		}
	}
	t.Fatal("trace carries no reopt span")
	return nil
}

// TestReoptInflightSwap drives the whole loop through the pipelined
// engine: the mis-seeded run must decide mid-flight, swap the filter
// order, keep byte-identical output to a sequential run of the same
// chain, and report the decision on both the Result and the trace.
func TestReoptInflightSwap(t *testing.T) {
	seqExec, err := NewExecutor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	seqRes, err := seqExec.Execute(context.Background(), reoptChain(t), optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	pipeExec, err := NewExecutor(misSeeded(Config{Parallelism: 4, StreamBatchSize: 8}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeExec.Execute(context.Background(), reoptChain(t), optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	ri := res.Reopt
	if ri == nil {
		t.Fatal("reopt-armed run reported no ReoptInfo")
	}
	if ri.Phase != "inflight" {
		t.Fatalf("phase = %q, want inflight", ri.Phase)
	}
	if !ri.Triggered || !ri.Swapped {
		t.Fatalf("triggered=%t swapped=%t; mis-seeded priors must trigger a swap", ri.Triggered, ri.Swapped)
	}
	if ri.OldPlan == ri.NewPlan {
		t.Fatalf("swap reported but plan displays match: %s", ri.OldPlan)
	}
	// The display quotes predicates — that is what distinguishes two
	// same-model filter stages across the swap.
	if !strings.Contains(ri.NewPlan, `"`) {
		t.Fatalf("plan display carries no predicate snippet: %s", ri.NewPlan)
	}
	if ri.CorrectedPlan == nil {
		t.Fatal("swap left no corrected plan for the plan cache")
	}
	if fmt.Sprint(recordKeys(res.Records)) != fmt.Sprint(recordKeys(seqRes.Records)) {
		t.Fatalf("swapped run output diverges from sequential: %d vs %d records",
			len(res.Records), len(seqRes.Records))
	}

	sp := reoptSpanOf(t, res)
	if sp.Attrs["swapped"] != "true" || sp.Attrs["phase"] != "inflight" {
		t.Fatalf("reopt span attrs = %v", sp.Attrs)
	}
	if sp.Attrs["old_plan"] == sp.Attrs["new_plan"] {
		t.Fatal("reopt span shows identical old/new plan displays after a swap")
	}
}

// TestReoptSequentialPostrun exercises the fallback: a sequential run
// cannot swap mid-flight but must still correct the cached estimates.
func TestReoptSequentialPostrun(t *testing.T) {
	e, err := NewExecutor(misSeeded(Config{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), reoptChain(t), optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ri := res.Reopt
	if ri == nil || ri.Phase != "postrun" {
		t.Fatalf("reopt info = %+v, want postrun phase", ri)
	}
	if !ri.Triggered {
		t.Fatalf("divergence %.3f below threshold %.3f on mis-seeded priors", ri.Divergence, ri.Threshold)
	}
	if ri.Swapped {
		t.Fatal("sequential run claims an in-flight swap")
	}
	if ri.CorrectedPlan == nil {
		t.Fatal("postrun check produced no corrected plan")
	}
	if sp := reoptSpanOf(t, res); sp.Attrs["phase"] != "postrun" {
		t.Fatalf("reopt span phase = %q", sp.Attrs["phase"])
	}
}

// TestReoptPlanCacheHitPath covers the serving layer's entry point:
// ExecutePlan of a cached, reopt-armed plan runs the same loop and stamps
// the reopt span alongside the plan_cached attribute.
func TestReoptPlanCacheHitPath(t *testing.T) {
	e, err := NewExecutor(misSeeded(Config{Parallelism: 4, StreamBatchSize: 8}))
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(e.OptimizerOptions(0, 0))
	plan, _, err := opt.Optimize(reoptChain(t), optimizer.MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecutePlan(t.Context(), &Optimized{Plan: plan}, "max quality")
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopt == nil || !res.Reopt.Swapped {
		t.Fatalf("cached-plan run reopt = %+v, want an in-flight swap", res.Reopt)
	}
	if sp := reoptSpanOf(t, res); sp.Attrs["swapped"] != "true" {
		t.Fatalf("reopt span attrs = %v", sp.Attrs)
	}
}

func TestPredicateSnippetTruncates(t *testing.T) {
	long := strings.Repeat("x", 40)
	got := predicateSnippet(long)
	if len([]rune(got)) != 24 || !strings.HasSuffix(got, "…") {
		t.Fatalf("snippet = %q (%d runes)", got, len([]rune(got)))
	}
	if predicateSnippet("short") != "short" {
		t.Fatal("short predicate was altered")
	}
}
