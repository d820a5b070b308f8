package ops

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/vector"
)

const cascadePredicate = "The ticket is urgent and needs immediate attention"

// cascadeFixture generates a support corpus, its record set, and an
// embedding sidecar index built with the catalog embedding function (the
// same vectors `pzcorpus embed` would store).
func cascadeFixture(t *testing.T, n int) ([]*record.Record, *corpus.EmbedIndex) {
	t.Helper()
	g, err := corpus.NewGenerator(corpus.DomainSupport, n, -1, 9)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.Collect(g)
	if err != nil {
		t.Fatal(err)
	}
	src, err := dataset.NewDocsSource("support", schema.TextFile, docs)
	if err != nil {
		t.Fatal(err)
	}
	ix := corpus.NewEmbedIndex(llm.EmbedDim)
	for _, d := range docs {
		ix.Add(d.Filename, llm.EmbedVector(d.Text))
	}
	ctx, _, _ := newCtx(t, 4)
	recs := scanAll(t, ctx, src)
	if len(recs) != n {
		t.Fatalf("scanned %d records, want %d", len(recs), n)
	}
	return recs, ix
}

// calibrateProbe mirrors the optimizer's calibration on a labeled sample:
// split the sidecar vectors by gold label, build the Rocchio probe, and
// pick the highest threshold that keeps every gold positive — so the
// prefilter costs no recall on this sample.
func calibrateProbe(t *testing.T, recs []*record.Record, ix *corpus.EmbedIndex, predicate string) ([]float64, float64) {
	t.Helper()
	var pos, neg [][]float64
	for _, r := range recs {
		v, ok := ix.Vector(r.GetString("filename"))
		if !ok {
			t.Fatalf("record %q missing from sidecar", r.GetString("filename"))
		}
		if llm.GoldFilterDecision(corpus.TruthOf(r), predicate) {
			pos = append(pos, v)
		} else {
			neg = append(neg, v)
		}
	}
	probe := BuildCascadeProbe(pos, neg)
	if probe == nil {
		t.Fatal("sample has a single class; cannot build probe")
	}
	lo := 1.0
	for _, v := range pos {
		if s := CascadeScore(vector.Cosine(probe, v)); s < lo {
			lo = s
		}
	}
	return probe, lo - 1e-9
}

func tierByName(t *testing.T, st OpStats, name string) TierStat {
	t.Helper()
	for _, tier := range st.Tiers {
		if tier.Tier == name {
			return tier
		}
	}
	t.Fatalf("operator %s has no %q tier (tiers: %+v)", st.OpID, name, st.Tiers)
	return TierStat{}
}

func filterStats(t *testing.T, ctx *Ctx) OpStats {
	t.Helper()
	for _, st := range ctx.Stats.Ops() {
		if st.Kind == "filter" {
			return st
		}
	}
	t.Fatal("no filter operator in stats")
	return OpStats{}
}

// checkTierInvariants asserts per-tier flow conservation and tier-to-stage
// reconciliation for a cascade run.
func checkTierInvariants(t *testing.T, st OpStats) {
	t.Helper()
	var emitted int
	prevPassed := -1
	for _, tier := range st.Tiers {
		if tier.In != tier.Emitted+tier.Dropped+tier.Passed {
			t.Errorf("tier %s: In=%d != Emitted+Dropped+Passed=%d",
				tier.Tier, tier.In, tier.Emitted+tier.Dropped+tier.Passed)
		}
		if prevPassed >= 0 && tier.In != prevPassed {
			t.Errorf("tier %s: In=%d != previous tier's Passed=%d", tier.Tier, tier.In, prevPassed)
		}
		prevPassed = tier.Passed
		emitted += tier.Emitted
	}
	if len(st.Tiers) > 0 {
		if st.Tiers[0].In != st.InRecords {
			t.Errorf("first tier In=%d != stage InRecords=%d", st.Tiers[0].In, st.InRecords)
		}
		if last := st.Tiers[len(st.Tiers)-1]; last.Passed != 0 {
			t.Errorf("last tier %s passes %d records to nowhere", last.Tier, last.Passed)
		}
	}
	if emitted != st.OutRecords {
		t.Errorf("tiers emitted %d records, stage OutRecords=%d", emitted, st.OutRecords)
	}
}

// TestCascadeDegenerateMatchesPlainFilter pins the parity anchor: with
// Threshold<=0 the cascade bypasses prefilter and verify entirely and must
// keep exactly the records llm-filter(ResolveModel) keeps.
func TestCascadeDegenerateMatchesPlainFilter(t *testing.T) {
	recs, ix := cascadeFixture(t, 120)
	filter := &Filter{Predicate: cascadePredicate}

	plainCtx, _, _ := newCtx(t, 4)
	plain := &LLMFilterExec{Filter: filter, Model: "atlas-large"}
	want, err := plain.Execute(plainCtx, recs)
	if err != nil {
		t.Fatal(err)
	}

	cascCtx, _, _ := newCtx(t, 4)
	casc := &CascadeFilterExec{
		Filter:       filter,
		VerifyModel:  "atlas-medium",
		ResolveModel: "atlas-large",
		Threshold:    0,
		Lookup:       ix,
	}
	got, err := casc.Execute(cascCtx, recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("cascade kept %d records, plain filter kept %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d differs: cascade %q, plain %q",
				i, got[i].GetString("filename"), want[i].GetString("filename"))
		}
	}

	st := filterStats(t, cascCtx)
	checkTierInvariants(t, st)
	pre := tierByName(t, st, TierPrefilter)
	if pre.In != len(recs) || pre.Passed != len(recs) || pre.LLMCalls != 0 || pre.CostUSD != 0 {
		t.Errorf("degenerate prefilter should pass everything for free: %+v", pre)
	}
	res := tierByName(t, st, TierResolve)
	if res.In != len(recs) || res.LLMCalls != len(recs) {
		t.Errorf("degenerate resolve should judge everything: %+v", res)
	}
	for _, tier := range st.Tiers {
		if tier.Tier == TierVerify {
			t.Error("degenerate cascade must not run a verify tier")
		}
	}
}

// TestCascadeExactTiersAndCost runs the real three-tier cascade with a
// recall-preserving threshold and checks flow conservation, sidecar-only
// prefiltering (one embedding call total), output quality, and that the
// cascade is strictly cheaper than resolving every record.
func TestCascadeExactTiersAndCost(t *testing.T) {
	recs, ix := cascadeFixture(t, 150)
	filter := &Filter{Predicate: cascadePredicate}
	probe, threshold := calibrateProbe(t, recs, ix, cascadePredicate)

	cascCtx, _, _ := newCtx(t, 4)
	casc := &CascadeFilterExec{
		Filter:       filter,
		VerifyModel:  "atlas-medium",
		ResolveModel: "atlas-large",
		Threshold:    threshold,
		QueryVec:     probe,
		Lookup:       ix,
	}
	out, err := casc.Execute(cascCtx, recs)
	if err != nil {
		t.Fatal(err)
	}

	// Output must be an in-order subsequence of the input.
	j := 0
	for _, r := range out {
		for j < len(recs) && recs[j] != r {
			j++
		}
		if j == len(recs) {
			t.Fatal("cascade output is not an in-order subsequence of its input")
		}
		j++
	}

	st := filterStats(t, cascCtx)
	checkTierInvariants(t, st)
	pre := tierByName(t, st, TierPrefilter)
	if pre.LLMCalls != 0 {
		t.Errorf("prefilter made %d LLM calls; with a probe and full sidecar coverage it should make none", pre.LLMCalls)
	}
	if pre.Dropped == 0 {
		t.Error("prefilter dropped nothing; threshold calibration is broken")
	}
	ver := tierByName(t, st, TierVerify)
	if ver.In != pre.Passed || ver.LLMCalls != ver.In {
		t.Errorf("verify tier should judge every survivor once: %+v (prefilter %+v)", ver, pre)
	}
	res := tierByName(t, st, TierResolve)
	if res.In == 0 {
		t.Error("no record escalated to the resolve tier; confidence routing is broken")
	}
	if res.In >= ver.In {
		t.Errorf("resolve tier saw %d of %d verified records; escalation should be the minority",
			res.In, ver.In)
	}

	// Quality: F1 against gold labels stays high because the threshold
	// preserves sample recall and mistakes mostly escalate.
	var tp, fp, fn int
	kept := make(map[*record.Record]bool, len(out))
	for _, r := range out {
		kept[r] = true
	}
	for _, r := range recs {
		gold := llm.GoldFilterDecision(corpus.TruthOf(r), cascadePredicate)
		switch {
		case gold && kept[r]:
			tp++
		case !gold && kept[r]:
			fp++
		case gold && !kept[r]:
			fn++
		}
	}
	if tp == 0 {
		t.Fatal("cascade kept no gold-positive records")
	}
	f1 := 2 * float64(tp) / float64(2*tp+fp+fn)
	if f1 < 0.9 {
		t.Errorf("cascade F1 = %.3f, want >= 0.9 (tp=%d fp=%d fn=%d)", f1, tp, fp, fn)
	}

	// Cost: strictly cheaper than judging every record with the resolve
	// model, which is what the plain filter would do.
	plainCtx, _, _ := newCtx(t, 4)
	plain := &LLMFilterExec{Filter: filter, Model: "atlas-large"}
	if _, err := plain.Execute(plainCtx, recs); err != nil {
		t.Fatal(err)
	}
	plainCost := filterStats(t, plainCtx).CostUSD
	if st.CostUSD >= plainCost {
		t.Errorf("cascade cost %.4f not below plain filter cost %.4f", st.CostUSD, plainCost)
	}
	var tierCost float64
	for _, tier := range st.Tiers {
		tierCost += tier.CostUSD
	}
	if diff := tierCost - st.CostUSD; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("tier costs sum to %.6f, stage cost is %.6f", tierCost, st.CostUSD)
	}
}
