package exec

import (
	"context"
	"testing"

	"repro/internal/optimizer"
)

// TestCachedRerunIsNearlyFree: with EnableCache, executing the same
// pipeline twice pays full price once; the second run's completion calls
// all hit the cache, so only embeddings (uncached) or nothing remain.
func TestCachedRerunIsNearlyFree(t *testing.T) {
	e, err := NewExecutor(Config{EnableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	chain := demoChain(t)
	first, err := e.Execute(context.Background(), chain, optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first.CostUSD <= 0.1 {
		t.Fatalf("first run suspiciously cheap: $%.4f", first.CostUSD)
	}
	second, err := e.Execute(context.Background(), chain, optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if second.CostUSD > first.CostUSD/100 {
		t.Errorf("cached rerun cost $%.4f, want <1%% of $%.4f", second.CostUSD, first.CostUSD)
	}
	if len(second.Records) != len(first.Records) {
		t.Errorf("cached rerun changed outputs: %d vs %d", len(second.Records), len(first.Records))
	}
	if second.Elapsed >= first.Elapsed/10 {
		t.Errorf("cached rerun elapsed %v, want <10%% of %v", second.Elapsed, first.Elapsed)
	}
	st := e.Cache().Stats()
	if st.Hits == 0 || st.SavedUSD <= 0 {
		t.Errorf("cache stats: hits=%d saved=%v", st.Hits, st.SavedUSD)
	}
}

// TestCacheSharedAcrossPolicies: plans that reuse the same (model, task,
// record) calls hit the cache even under a different policy.
func TestCacheSharedAcrossPolicies(t *testing.T) {
	e, err := NewExecutor(Config{EnableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	chain := demoChain(t)
	if _, err := e.Execute(context.Background(), chain, optimizer.MaxQuality{}, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Quality-floor policy picks a different (cheaper) plan: different
	// models, so misses; then re-running it hits.
	mid, err := e.Execute(context.Background(), chain, optimizer.MinCostAtQuality{Floor: 0.85}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	midAgain, err := e.Execute(context.Background(), chain, optimizer.MinCostAtQuality{Floor: 0.85}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if midAgain.CostUSD >= mid.CostUSD/10 && mid.CostUSD > 0 {
		t.Errorf("second mid-tier run cost $%.4f vs first $%.4f", midAgain.CostUSD, mid.CostUSD)
	}
}

// TestCacheDisabledByDefault: without EnableCache, reruns pay full price.
func TestCacheDisabledByDefault(t *testing.T) {
	e, err := NewExecutor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Cache() != nil {
		t.Fatal("cache present without EnableCache")
	}
	chain := demoChain(t)
	a, err := e.Execute(context.Background(), chain, optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Execute(context.Background(), chain, optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.CostUSD < a.CostUSD*0.9 {
		t.Errorf("uncached rerun got cheaper: $%.4f vs $%.4f", b.CostUSD, a.CostUSD)
	}
}
