package optimizer

import (
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/record"
)

const urgentPredicate = "The ticket is urgent and needs immediate attention"

// sidecarChain builds a scan+filter chain over an on-disk support corpus
// with an embedding sidecar — the shape that qualifies for cascade
// enumeration.
func sidecarChain(t *testing.T, n int) []ops.Logical {
	t.Helper()
	path := filepath.Join(t.TempDir(), "support.ndjson")
	g, err := corpus.NewGenerator(corpus.DomainSupport, n, -1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := corpus.SaveNDJSON(path, g, 11, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := corpus.EmbedNDJSON(path, llm.EmbedDim, llm.EmbedVector); err != nil {
		t.Fatal(err)
	}
	src, err := dataset.NewNDJSONSource("support", path)
	if err != nil {
		t.Fatal(err)
	}
	return []ops.Logical{
		&ops.Scan{Source: src},
		&ops.Filter{Predicate: urgentPredicate},
	}
}

// cascadeAt returns the cascade operator at the plan's filter position, or
// nil when the plan uses another strategy.
func cascadeAt(p *Plan) *ops.CascadeFilterExec {
	c, _ := p.Ops[1].(*ops.CascadeFilterExec)
	return c
}

func countCascades(plans []*Plan) int {
	n := 0
	for _, p := range plans {
		if cascadeAt(p) != nil {
			n++
		}
	}
	return n
}

func TestCascadeChosenByCostPolicyAndExecutes(t *testing.T) {
	chain := sidecarChain(t, 400)
	ctx, _ := newCtx(t)
	chosen, plans, err := New(Options{}).Optimize(chain, MinCostAtQuality{Floor: 0.95}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	// One cascade per verify model was enumerated.
	if got := countCascades(plans); got != len(cascadeVerifyModels) {
		t.Fatalf("enumerated %d cascade plans, want %d", got, len(cascadeVerifyModels))
	}
	casc := cascadeAt(chosen)
	if casc == nil {
		t.Fatalf("cost policy did not choose a cascade: %s", chosen)
	}
	if chosen.ConstraintViolated {
		t.Fatalf("chosen cascade violates the 0.95 quality floor: est quality %v", chosen.Quality())
	}
	if casc.Cal == nil || casc.Cal.F1 < 0.95 {
		t.Fatalf("chosen cascade has calibration %+v, want measured F1 >= 0.95", casc.Cal)
	}

	// The cascade must beat the plain champion filter on estimated cost by
	// a wide margin — that is the whole point of the strategy.
	var plain *Plan
	for _, p := range plans {
		if f, ok := p.Ops[1].(*ops.LLMFilterExec); ok && f.Model == "atlas-large" {
			plain = p
			break
		}
	}
	if plain == nil {
		t.Fatal("no plain atlas-large plan among candidates")
	}
	if chosen.Cost()*2 > plain.Cost() {
		t.Fatalf("cascade est cost %v is not well under plain cost %v", chosen.Cost(), plain.Cost())
	}

	// Executing the chosen plan must deliver quality the floor promised,
	// measured against ground truth, at a real cost below the plain plan's.
	var recs []*record.Record
	for i, op := range chosen.Ops {
		ctx.SetCurrentOp(i)
		recs, err = op.Execute(ctx, recs)
		if err != nil {
			t.Fatal(err)
		}
	}
	inputs, err := chain[0].(*ops.Scan).Source.Records()
	if err != nil {
		t.Fatal(err)
	}
	prf := metrics.FilterQualityByTruth(inputs, recs, urgentPredicate)
	if prf.F1 < 0.95 {
		t.Fatalf("executed cascade F1 = %v, below the 0.95 floor", prf.F1)
	}
	var cost float64
	for _, st := range ctx.Stats.Ops() {
		cost += st.CostUSD
	}
	if cost <= 0 {
		t.Fatal("cascade execution reported zero cost")
	}
}

func TestCascadeRejectedByHighQualityFloor(t *testing.T) {
	chain := sidecarChain(t, 300)
	ctx, _ := newCtx(t)
	// Laplace smoothing caps what a ~256-record sample can claim, so a
	// 0.995 floor must send the policy to the plain champion filter —
	// honestly, without a constraint violation (atlas-large qualifies).
	chosen, _, err := New(Options{}).Optimize(chain, MinCostAtQuality{Floor: 0.995}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cascadeAt(chosen) != nil {
		t.Fatalf("0.995 floor accepted a cascade with est quality %v", chosen.Quality())
	}
	if chosen.ConstraintViolated {
		t.Fatal("floor should be satisfiable by the plain champion filter")
	}
	f, ok := chosen.Ops[1].(*ops.LLMFilterExec)
	if !ok || f.Model != "atlas-large" {
		t.Fatalf("expected plain atlas-large filter, got %s", chosen)
	}
}

func TestCascadeGates(t *testing.T) {
	ctx, _ := newCtx(t)

	t.Run("no context", func(t *testing.T) {
		_, plans, err := New(Options{}).Optimize(sidecarChain(t, 120), MinCost{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if countCascades(plans) != 0 {
			t.Error("cascade enumerated without an execution context")
		}
	})
	t.Run("no sidecar", func(t *testing.T) {
		_, plans, err := New(Options{}).Optimize(demoChain(t), MinCost{}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if countCascades(plans) != 0 {
			t.Error("cascade enumerated over a source with no embedding sidecar")
		}
	})
}
