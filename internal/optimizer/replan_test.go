package optimizer

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/record"
	"repro/internal/schema"
)

const (
	broadPredicate  = "This is a support ticket"
	narrowPredicate = "The ticket is urgent and needs immediate attention"
)

// twoFilterChain is the canonical re-orderable shape: scan, then two pure
// NL filters.
func twoFilterChain(t *testing.T) []ops.Logical {
	t.Helper()
	g := corpus.NewSupportGenerator(corpus.SupportConfig{NumTickets: 48, UrgentRate: 0.3, Seed: 9})
	docs, err := corpus.Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	src, err := dataset.NewDocsSource("tickets", schema.TextFile, docs)
	if err != nil {
		t.Fatal(err)
	}
	return []ops.Logical{
		&ops.Scan{Source: src},
		&ops.Filter{Predicate: broadPredicate},
		&ops.Filter{Predicate: narrowPredicate},
	}
}

// misSeededPlan optimizes the two-filter chain under priors claiming the
// broad filter prunes hard and the narrow one keeps everything, so the
// champion runs broad-first — the order Replan must recover from.
func misSeededPlan(t *testing.T) *Plan {
	t.Helper()
	opt := New(Options{
		ReoptAfterBatches: 2,
		Priors:            Calibration{1: {Selectivity: 0.05}, 2: {Selectivity: 0.95}},
	})
	plan, _, err := opt.Optimize(twoFilterChain(t), MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := planPredicate(plan, 1); got != broadPredicate {
		t.Fatalf("mis-seeded champion runs %q first, want the broad filter", got)
	}
	return plan
}

func planPredicate(p *Plan, pos int) string {
	return p.Logical[pos].(*ops.Filter).Predicate
}

func TestReorderableWindow(t *testing.T) {
	plan := misSeededPlan(t)
	lo, hi, ok := ReorderableWindow(plan)
	if !ok || lo != 1 || hi != 3 {
		t.Fatalf("window = [%d, %d) ok=%t, want [1, 3) over the filter pair", lo, hi, ok)
	}

	// A single filter is not a window.
	opt := New(Options{})
	chain := twoFilterChain(t)[:2]
	single, _, err := opt.Optimize(chain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ReorderableWindow(single); ok {
		t.Fatal("one filter reported as a re-orderable window")
	}

	// A UDF filter breaks the run: its purity is unknown.
	udfChain := twoFilterChain(t)
	udfChain[2] = &ops.Filter{Predicate: "u", UDFName: "u", UDF: func(r *record.Record) (bool, error) { return true, nil }}
	udfPlan, _, err := opt.Optimize(udfChain, MaxQuality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ReorderableWindow(udfPlan); ok {
		t.Fatal("UDF filter included in a re-orderable window")
	}
}

func TestFilterOrderingsGatedOnDifferingSelectivities(t *testing.T) {
	chain := twoFilterChain(t)
	if got := len(filterOrderings(chain, nil)); got != 1 {
		t.Fatalf("uncalibrated chain expanded %d orderings, want identity only", got)
	}
	same := Calibration{1: {Selectivity: 0.4}, 2: {Selectivity: 0.4}}
	if got := len(filterOrderings(chain, same)); got != 1 {
		t.Fatalf("equal selectivities expanded %d orderings, want identity only", got)
	}
	diff := Calibration{1: {Selectivity: 0.9}, 2: {Selectivity: 0.2}}
	if got := len(filterOrderings(chain, diff)); got != 2 {
		t.Fatalf("differing selectivities expanded %d orderings, want both orders", got)
	}
}

func TestReplanTriggersAndSwaps(t *testing.T) {
	plan := misSeededPlan(t)
	obs := []StageObservation{
		{Pos: 1, In: 16, Out: 16, CostUSD: 0.1}, // "selective" filter kept everything
		{Pos: 2, In: 16, Out: 5, CostUSD: 0.1},  // "permissive" filter pruned 11/16
	}
	dec := Replan(plan, obs, 1, 3)
	if !dec.Triggered {
		t.Fatalf("divergence %.3f did not trigger at threshold %.3f", dec.Divergence, dec.Threshold)
	}
	if !dec.Swapped || dec.NewPlan == nil {
		t.Fatal("inverted selectivities did not produce a swap")
	}
	if got := planPredicate(dec.NewPlan, 1); got != narrowPredicate {
		t.Fatalf("swapped plan runs %q first, want the narrow filter", got)
	}
	// Cheaper than the estimate-corrected original order (the original
	// plan's own cost still reflects the bogus optimistic priors).
	if dec.NewPlan.Cost() >= dec.Corrected.Cost() {
		t.Fatalf("swapped plan costs $%.4f, corrected original $%.4f — swap must be cheaper",
			dec.NewPlan.Cost(), dec.Corrected.Cost())
	}
	if len(dec.Perm) != 2 || dec.Perm[0] != 2 || dec.Perm[1] != 1 {
		t.Fatalf("perm = %v, want [2 1]", dec.Perm)
	}
	// The swap permutes operators, never models (byte-identity contract).
	for pos := 1; pos < 3; pos++ {
		oldF := plan.Ops[pos].(*ops.LLMFilterExec)
		newF := dec.NewPlan.Ops[pos].(*ops.LLMFilterExec)
		if oldF.Model != newF.Model {
			t.Fatalf("position %d changed model %s -> %s", pos, oldF.Model, newF.Model)
		}
	}
}

func TestReplanBelowThresholdCorrectsOnly(t *testing.T) {
	plan := misSeededPlan(t)
	// Observations matching the estimates: 5% through the broad stage,
	// 95% of the remainder through the narrow one.
	obs := []StageObservation{
		{Pos: 1, In: 100, Out: 5},
		{Pos: 2, In: 100, Out: 95},
	}
	dec := Replan(plan, obs, 1, 3)
	if dec.Swapped {
		t.Fatal("on-estimate observations still swapped")
	}
	if dec.Corrected == nil {
		t.Fatal("corrected plan missing — the plan cache depends on it")
	}

	// Divergent observations below the window fall back to correction:
	// passing lo = hi = 0 (the post-run path) must never swap, but the
	// corrected plan must absorb the observed selectivity.
	obs = []StageObservation{{Pos: 1, In: 48, Out: 48}}
	dec = Replan(plan, obs, 0, 0)
	if !dec.Triggered {
		t.Fatalf("divergence %.3f not detected", dec.Divergence)
	}
	if dec.Swapped {
		t.Fatal("correction-only call swapped")
	}
	got := dec.Corrected.PerOp[1].Cardinality / dec.Corrected.PerOp[0].Cardinality
	if got < 0.99 || got > 1.01 {
		t.Fatalf("corrected selectivity %.3f, want ~1.0 from the observation", got)
	}
}

func TestReplanZeroSelectivityGuard(t *testing.T) {
	plan := misSeededPlan(t)
	dec := Replan(plan, []StageObservation{{Pos: 1, In: 16, Out: 0}}, 0, 0)
	for pos, est := range dec.Corrected.PerOp {
		if est.Cardinality <= 0 {
			t.Fatalf("zero observed selectivity wiped the estimate at position %d", pos)
		}
	}
}

func TestFingerprintSeparatesReoptKnobs(t *testing.T) {
	chain := twoFilterChain(t)
	base := Fingerprint(chain, MaxQuality{}, Options{})
	reopt := Fingerprint(chain, MaxQuality{}, Options{ReoptAfterBatches: 2})
	prior := Fingerprint(chain, MaxQuality{}, Options{Priors: Calibration{1: {Selectivity: 0.05}}})
	if base == reopt || base == prior || reopt == prior {
		t.Fatalf("fingerprints do not separate reopt knobs: base=%s reopt=%s prior=%s",
			shorten(base), shorten(reopt), shorten(prior))
	}
}

func shorten(s string) string {
	if i := strings.IndexByte(s, ':'); i > 0 && len(s) > i+13 {
		return s[:i+13]
	}
	return s
}
