package optimizer

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/record"
	"repro/internal/schema"
)

func fpChain(t *testing.T, predicate string, target *schema.Schema) []ops.Logical {
	t.Helper()
	recs := []*record.Record{record.MustNew(schema.TextFile,
		map[string]any{"filename": "a.txt", "contents": "alpha beta"})}
	src, err := dataset.NewMemSource("fp-src", schema.TextFile, recs)
	if err != nil {
		t.Fatal(err)
	}
	chain := []ops.Logical{&ops.Scan{Source: src}, &ops.Filter{Predicate: predicate}}
	if target != nil {
		chain = append(chain, &ops.Convert{Target: target, Desc: target.Doc(), Card: ops.OneToMany})
	}
	return chain
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	sc, err := schema.Derive("Thing", "Things.", []string{"name", "size:int"}, []string{"The name", "The size"})
	if err != nil {
		t.Fatal(err)
	}
	base := Fingerprint(fpChain(t, "about cats", sc), MaxQuality{}, Options{Pruning: true})

	// Same inputs, independently constructed -> same fingerprint.
	sc2, _ := schema.Derive("Thing", "Things.", []string{"name", "size:int"}, []string{"The name", "The size"})
	if again := Fingerprint(fpChain(t, "about cats", sc2), MaxQuality{}, Options{Pruning: true}); again != base {
		t.Error("identical queries fingerprint differently")
	}

	distinct := map[string]string{
		"predicate": Fingerprint(fpChain(t, "about dogs", sc), MaxQuality{}, Options{Pruning: true}),
		"policy":    Fingerprint(fpChain(t, "about cats", sc), MinCost{}, Options{Pruning: true}),
		"policy-param": Fingerprint(fpChain(t, "about cats", sc),
			MaxQualityAtCost{BudgetUSD: 2}, Options{Pruning: true}),
		"options": Fingerprint(fpChain(t, "about cats", sc), MaxQuality{}, Options{}),
		"pipelined": Fingerprint(fpChain(t, "about cats", sc), MaxQuality{},
			Options{Pruning: true, Pipelined: true}),
	}
	for what, fp := range distinct {
		if fp == base {
			t.Errorf("changing %s did not change the fingerprint", what)
		}
	}
}

// TestFingerprintSeesSchemaFields: two converts whose target schemas share
// a name but differ in fields must not collide (the display string alone
// would).
func TestFingerprintSeesSchemaFields(t *testing.T) {
	a, _ := schema.Derive("Thing", "Things.", []string{"name"}, []string{"The name"})
	b, _ := schema.Derive("Thing", "Things.", []string{"name", "url"}, []string{"The name", "The URL"})
	fa := Fingerprint(fpChain(t, "p", a), MaxQuality{}, Options{})
	fb := Fingerprint(fpChain(t, "p", b), MaxQuality{}, Options{})
	if fa == fb {
		t.Error("schemas with identical names but different fields collided")
	}
}

// TestFingerprintCachedPlanReusable: equal fingerprints imply the optimizer
// chooses the same plan, so replaying the cached plan is sound.
func TestFingerprintCachedPlanReusable(t *testing.T) {
	chain := fpChain(t, "alpha beta", nil)
	p1, _, err := New(Options{Pruning: true}).Optimize(chain, MinCost{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := New(Options{Pruning: true}).Optimize(chain, MinCost{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() {
		t.Fatalf("same fingerprint, different plans: %s vs %s", p1, p2)
	}
}
