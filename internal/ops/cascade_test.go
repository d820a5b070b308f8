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

// opStatsAt returns the stats of the operator at plan position pos.
func opStatsAt(t *testing.T, ctx *Ctx, pos int) OpStats {
	t.Helper()
	for _, st := range ctx.Stats.Ops() {
		if st.Position == pos {
			return st
		}
	}
	t.Fatalf("no operator at position %d in stats", pos)
	return OpStats{}
}

// TestCascadeTiersIssuePlainFilterRequests pins request identity: each
// cascade tier issues exactly the requests the plain filter with its
// model would. After a calibrated cascade runs through a response cache,
// llm-filter(VerifyModel) over the prefilter's survivors and
// llm-filter(ResolveModel) over the verify tier's escalations are
// answered wholly from that cache, at no added cost.
func TestCascadeTiersIssuePlainFilterRequests(t *testing.T) {
	recs, ix := cascadeFixture(t, 150)
	filter := &Filter{Predicate: cascadePredicate}
	probe, threshold := calibrateProbe(t, recs, ix, cascadePredicate)

	ctx, svc, _ := newCtx(t, 4)
	cached, err := llm.NewCachedClient(ctx.Client, llm.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	ctx.Client = cached
	casc := &CascadeFilterExec{
		Filter:       filter,
		VerifyModel:  "atlas-medium",
		ResolveModel: "atlas-large",
		Threshold:    threshold,
		QueryVec:     probe,
		Lookup:       ix,
	}
	ctx.SetCurrentOp(1)
	if _, err := casc.Execute(ctx, recs); err != nil {
		t.Fatal(err)
	}
	st := opStatsAt(t, ctx, 1)
	ver, res := tierByName(t, st, TierVerify), tierByName(t, st, TierResolve)
	if res.In == 0 {
		t.Fatal("no record escalated; the resolve tier goes untested")
	}
	spent := svc.TotalCost()

	// plainHits runs the plain filter at pos over recs and checks that
	// the cache answered every call.
	plainHits := func(pos int, model string, recs []*record.Record) {
		t.Helper()
		ctx.SetCurrentOp(pos)
		if _, err := (&LLMFilterExec{Filter: filter, Model: model}).Execute(ctx, recs); err != nil {
			t.Fatal(err)
		}
		st := opStatsAt(t, ctx, pos)
		if st.LLMCalls != len(recs) || st.CacheHits != len(recs) || st.CostUSD != 0 {
			t.Errorf("llm-filter(%s) over %d records: %d calls, %d cache hits, $%v; want every call a free hit",
				model, len(recs), st.LLMCalls, st.CacheHits, st.CostUSD)
		}
	}

	var surv []*record.Record
	for _, r := range recs {
		vec, _ := ix.Vector(r.GetString("filename"))
		if CascadeScore(vector.Cosine(probe, vec)) >= threshold {
			surv = append(surv, r)
		}
	}
	if len(surv) != ver.In {
		t.Fatalf("prefilter passed %d records, the probe keeps %d", ver.In, len(surv))
	}
	plainHits(2, "atlas-medium", surv)

	var esc []*record.Record
	for _, r := range surv {
		resp, err := cached.Complete(FilterRequest("atlas-medium", cascadePredicate, r))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Confidence < DefaultResolveConfidence {
			esc = append(esc, r)
		}
	}
	if len(esc) != res.In {
		t.Fatalf("verify tier escalated %d records, the verify verdicts escalate %d", res.In, len(esc))
	}
	plainHits(3, "atlas-large", esc)

	if got := svc.TotalCost(); got != spent {
		t.Errorf("the plain filters added $%v of calls; want none", got-spent)
	}
}

// TestCascadeEstimateOverNoRecords: a calibrated cascade makes no call
// that does not depend on its input (the prefilter's probe is given and
// sidecar lookups are free), so its estimate over no records costs
// nothing and takes no time.
func TestCascadeEstimateOverNoRecords(t *testing.T) {
	casc := &CascadeFilterExec{
		Filter:       &Filter{Predicate: cascadePredicate},
		VerifyModel:  "atlas-medium",
		ResolveModel: "atlas-large",
		Threshold:    0.5,
		Cal:          &CascadeEstimates{KeepRate: 0.4, EscalationRate: 0.2, Selectivity: 0.3, F1: 0.97},
	}
	est := casc.Estimate(Estimate{Cardinality: 0, AvgTokens: 200, Quality: 1})
	if est.CostUSD != 0 || est.TimeSec != 0 || est.Cardinality != 0 {
		t.Errorf("estimate over no records = $%v, %vs, %v records; want all zero", est.CostUSD, est.TimeSec, est.Cardinality)
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
