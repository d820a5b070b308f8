package ops

import (
	"testing"

	"repro/internal/llm"
)

// TestFilterAllocs pins what LLMFilterExec.Execute allocates over an
// 8-record batch whose every response is a cache hit: the filter loop's
// own slices, the kept-record slice and one response per hit, plus the
// worker pool when the batch runs in parallel. The plain filter is the
// hottest operator of the corpus_scan, serve_mix and cluster_scatter
// workloads, so the loop every filter strategy shares must not grow it.
func TestFilterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, tc := range []struct {
		parallelism int
		max         float64
	}{{1, 15}, {4, 21}} {
		ctx, _, _ := newCtx(t, tc.parallelism)
		recs := scanAll(t, ctx, biomedSource(t))
		if len(recs) < 8 {
			t.Fatalf("fixture has %d records, want at least 8", len(recs))
		}
		recs = recs[:8]
		client, err := llm.NewCachedClient(ctx.Client, llm.NewCache())
		if err != nil {
			t.Fatal(err)
		}
		ctx.Client = client
		ctx.SetCurrentOp(1)
		f := &LLMFilterExec{Filter: &Filter{Predicate: demoPredicate}, Model: "atlas-small"}
		if _, err := f.Execute(ctx, recs); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := f.Execute(ctx, recs); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("P=%d: LLMFilterExec.Execute over 8 cache hits: %.0f allocs, want <= %.0f",
				tc.parallelism, got, tc.max)
		} else {
			t.Logf("P=%d: LLMFilterExec.Execute over 8 cache hits: %.0f allocs", tc.parallelism, got)
		}
	}
}
