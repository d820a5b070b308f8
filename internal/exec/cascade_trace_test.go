package exec

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/internal/trace"
)

// embedNdjsonSource is ndjsonSource plus an embedding sidecar — the corpus
// shape that makes the optimizer enumerate cascade plans.
func embedNdjsonSource(t *testing.T, n int) *dataset.NDJSONSource {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tickets.ndjson")
	g := corpus.NewSupportGenerator(corpus.SupportConfig{NumTickets: n, UrgentRate: 0.3, Seed: 17})
	if _, err := corpus.SaveNDJSON(path, g, 17, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := corpus.EmbedNDJSON(path, llm.EmbedDim, llm.EmbedVector); err != nil {
		t.Fatal(err)
	}
	src, err := dataset.NewNDJSONSource("tickets", path)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestCascadeTierSpansReconcile runs an end-to-end optimized cascade query
// on both run shapes and checks the trace's tier spans against their parent
// stage: records chain prefilter → verify → resolve, settled outputs sum
// to the stage's output, and tier costs and calls sum to the stage's.
func TestCascadeTierSpansReconcile(t *testing.T) {
	chain := []ops.Logical{
		&ops.Scan{Source: embedNdjsonSource(t, 300)},
		&ops.Filter{Predicate: "The ticket is urgent and needs immediate attention"},
	}
	for name, cfg := range map[string]Config{
		"sequential": {},
		"pipelined":  {Parallelism: 4},
	} {
		t.Run(name, func(t *testing.T) {
			e, err := NewExecutor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Execute(context.Background(), chain, optimizer.MinCostAtQuality{Floor: 0.95}, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			casc, ok := res.Plan.Ops[1].(*ops.CascadeFilterExec)
			if !ok {
				t.Fatalf("cost policy did not choose a cascade: %s", res.Plan)
			}
			var stage *trace.Span
			for _, s := range res.Trace.Stages() {
				if s.OpID == casc.ID() {
					stage = s
				}
			}
			if stage == nil {
				t.Fatalf("no stage span for %s in trace", casc.ID())
			}
			tiers := stage.FindAll(trace.KindTier)
			if len(tiers) != 3 {
				t.Fatalf("cascade stage has %d tier spans, want 3", len(tiers))
			}
			wantOrder := []string{ops.TierPrefilter, ops.TierVerify, ops.TierResolve}
			for i, tier := range tiers {
				if tier.Name != wantOrder[i] {
					t.Fatalf("tier %d = %q, want %q", i, tier.Name, wantOrder[i])
				}
			}
			if tiers[0].RecordsIn != stage.RecordsIn {
				t.Errorf("prefilter in = %d, stage in = %d", tiers[0].RecordsIn, stage.RecordsIn)
			}
			// Each tier's RecordsOut is what it settled into the output plus
			// what it passed deeper; the next tier's RecordsIn is exactly the
			// passed share, so settled = out - nextIn.
			settled, cost, calls := 0, 0.0, 0
			for i, tier := range tiers {
				nextIn := 0
				if i+1 < len(tiers) {
					nextIn = tiers[i+1].RecordsIn
				}
				if tier.RecordsOut < nextIn {
					t.Errorf("tier %s out %d < next tier in %d", tier.Name, tier.RecordsOut, nextIn)
				}
				settled += tier.RecordsOut - nextIn
				cost += tier.CostUSD
				calls += tier.LLMCalls
			}
			if settled != stage.RecordsOut {
				t.Errorf("tiers settle %d records, stage out = %d", settled, stage.RecordsOut)
			}
			if math.Abs(cost-stage.CostUSD) > 1e-9 {
				t.Errorf("tier costs sum to %v, stage cost = %v", cost, stage.CostUSD)
			}
			if calls != stage.LLMCalls {
				t.Errorf("tier calls sum to %d, stage calls = %d", calls, stage.LLMCalls)
			}
			// The prefilter must actually shed work before the LLM tiers.
			if tiers[0].RecordsOut >= tiers[0].RecordsIn {
				t.Errorf("prefilter dropped nothing: %d -> %d", tiers[0].RecordsIn, tiers[0].RecordsOut)
			}
			if tiers[2].RecordsIn >= tiers[1].RecordsIn {
				t.Errorf("resolve tier saw %d records, not fewer than verify's %d", tiers[2].RecordsIn, tiers[1].RecordsIn)
			}
		})
	}
}
