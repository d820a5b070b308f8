package ops

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/record"
	"repro/internal/vector"
)

// Cascade tier names, shared with the trace/metrics layers so spans and
// counters agree on spelling.
const (
	TierPrefilter = "prefilter"
	TierVerify    = "verify"
	TierResolve   = "resolve"
)

// CascadeEmbedModel is the catalog embedding model the cascade charges for
// query embedding and sidecar-miss fallbacks.
const CascadeEmbedModel = "atlas-embed"

// DefaultResolveConfidence is the verify-tier confidence below which a
// record escalates to the resolve model when the plan does not set one.
// The oracle's confidence is calibrated so correct answers score >= 0.5
// and most mistakes score below it (see llm.Response.Confidence).
const DefaultResolveConfidence = 0.5

// CascadeEstimates carries the calibration measurements the optimizer
// attaches to a cascade candidate so Estimate can price it honestly
// instead of guessing. All rates are fractions in [0,1].
type CascadeEstimates struct {
	// KeepRate is the fraction of input records the vector prefilter
	// passes to the verify tier.
	KeepRate float64
	// EscalationRate is the fraction of verify-tier records that escalate
	// to the resolve model (confidence below threshold).
	EscalationRate float64
	// Selectivity is the overall output/input cardinality ratio.
	Selectivity float64
	// F1 is the estimated end-to-end F1 of the cascade against gold
	// labels, measured on the calibration sample with Laplace smoothing.
	F1 float64
}

// CascadeFilterExec is the semantic-index pushdown strategy for a
// natural-language filter: a vector prefilter over the corpus's embedding
// sidecar drops obvious non-matches for free, a cheap verify model judges
// the survivors, and only low-confidence verdicts escalate to the
// expensive resolve model. With a calibrated threshold most records never
// reach an LLM at all.
//
// Threshold <= 0 selects the degenerate cascade: the prefilter passes
// everything and the verify tier is bypassed, so every record goes
// straight to the resolve model. That mode issues byte-identical requests
// to LLMFilterExec{Model: ResolveModel} and therefore produces an
// identical kept set — the anchor the cascade parity tests pin down.
type CascadeFilterExec struct {
	// Filter is the logical operator.
	Filter *Filter
	// VerifyModel is the cheap model judging prefilter survivors.
	VerifyModel string
	// ResolveModel is the expensive model for low-confidence escalations
	// (and for everything in the degenerate mode).
	ResolveModel string
	// Threshold is the prefilter keep threshold on the normalized
	// similarity score CascadeScore (cosine mapped into [0,1], so any
	// real calibrated threshold is positive); <= 0 selects the
	// degenerate resolve-only mode.
	Threshold float64
	// ResolveConfidence is the verify-confidence escalation threshold
	// (0 = DefaultResolveConfidence).
	ResolveConfidence float64
	// QueryVec is the prefilter's query direction, normally the Rocchio
	// probe the optimizer learns from the calibration sample's gold
	// labels (see BuildCascadeProbe). When nil the operator falls back to
	// embedding the predicate text itself — a charged call and a much
	// weaker signal, kept for direct (un-calibrated) use.
	QueryVec []float64
	// Lookup is the corpus's embedding sidecar index. Records missing
	// from it (or a nil Lookup) fall back to charged on-line embedding.
	Lookup *corpus.EmbedIndex
	// Cal holds the optimizer's calibration measurements (nil = defaults).
	Cal *CascadeEstimates

	mu        sync.Mutex
	initErr   error
	queryVec  []float64
	queryCost float64
	queryLat  time.Duration
}

// ID implements Physical. "exact" names the prefilter's cosine scan; plan
// strings, fingerprints and traces carry the ID in this form.
func (f *CascadeFilterExec) ID() string {
	return fmt.Sprintf("cascade-filter(%s>%s, exact, t=%.3f)", f.VerifyModel, f.ResolveModel, f.Threshold)
}

// Kind implements Physical.
func (f *CascadeFilterExec) Kind() string { return "filter" }

// Streamable implements Streamer: every tier judges records independently,
// so any partition of the input yields the same kept set.
func (f *CascadeFilterExec) Streamable() bool { return true }

func (f *CascadeFilterExec) resolveConfidence() float64 {
	if f.ResolveConfidence > 0 {
		return f.ResolveConfidence
	}
	return DefaultResolveConfidence
}

// params returns (keepRate, escalationRate, selectivity, f1) from the
// calibration when present, else deliberately conservative defaults so an
// uncalibrated cascade never looks better than a plain filter.
func (f *CascadeFilterExec) params() (keep, esc, sel, f1 float64) {
	if f.Cal != nil {
		return f.Cal.KeepRate, f.Cal.EscalationRate, f.Cal.Selectivity, f.Cal.F1
	}
	vq := llm.MustCard(f.VerifyModel).FilterAccuracy()
	return 0.7, 0.3, 0.5, vq * 0.95
}

// Estimate implements Physical.
func (f *CascadeFilterExec) Estimate(in Estimate) Estimate {
	promptTok := int(in.AvgTokens) + FilterRequest(f.ResolveModel, f.Filter.Predicate, nil).InputTokens()
	const outTok = 2
	rcard := llm.MustCard(f.ResolveModel)
	out := in

	if f.Threshold <= 0 {
		// Degenerate mode prices exactly like llm-filter(ResolveModel).
		sel := 0.5
		if f.Cal != nil && f.Cal.Selectivity > 0 {
			sel = f.Cal.Selectivity
		}
		out.Cardinality = in.Cardinality * sel
		out.CostUSD += in.Cardinality * rcard.Cost(promptTok, outTok)
		out.TimeSec += in.Cardinality * rcard.Latency(promptTok, outTok).Seconds()
		out.Quality = in.Quality * rcard.FilterAccuracy()
		return out
	}

	vcard := llm.MustCard(f.VerifyModel)
	ecard := llm.MustCard(CascadeEmbedModel)
	keep, esc, sel, f1 := f.params()
	survivors := in.Cardinality * keep
	out.Cardinality = in.Cardinality * sel
	// One query embedding; sidecar lookups are free, so the prefilter
	// costs only (cheap) per-record compute.
	out.CostUSD += ecard.Cost(int(in.AvgTokens), 0)
	out.CostUSD += survivors * vcard.Cost(promptTok, outTok)
	out.CostUSD += survivors * esc * rcard.Cost(promptTok, outTok)
	out.TimeSec += in.Cardinality * cheapOpSecs
	out.TimeSec += survivors * vcard.Latency(promptTok, outTok).Seconds()
	out.TimeSec += survivors * esc * rcard.Latency(promptTok, outTok).Seconds()
	out.Quality = in.Quality * f1
	return out
}

// CascadeScore maps a cosine similarity into the prefilter's [0,1] score
// space: (1+cos)/2. Thresholding happens in this space so that a genuine
// calibrated threshold is always positive and Threshold<=0 stays an
// unambiguous sentinel for the degenerate mode (raw cosines against a
// Rocchio probe are routinely negative).
func CascadeScore(cos float64) float64 { return (1 + cos) / 2 }

// BuildCascadeProbe returns the Rocchio relevance direction for a labeled
// embedding sample: the positive centroid minus the negative centroid.
// Cosine against it separates records sharing the positive class's
// vocabulary far better than similarity to the raw predicate embedding,
// because the probe cancels the vocabulary both classes share. Returns
// nil when either class is empty.
func BuildCascadeProbe(pos, neg [][]float64) []float64 {
	if len(pos) == 0 || len(neg) == 0 {
		return nil
	}
	dim := len(pos[0])
	probe := make([]float64, dim)
	for _, v := range pos {
		for i := range probe {
			probe[i] += v[i] / float64(len(pos))
		}
	}
	for _, v := range neg {
		for i := range probe {
			probe[i] -= v[i] / float64(len(neg))
		}
	}
	return probe
}

// ensureInit resolves the query direction once: the provided probe, or a
// charged predicate embedding as fallback. Returns whether this call
// performed the initialization, so exactly one batch accounts the query
// embedding.
func (f *CascadeFilterExec) ensureInit(ctx *Ctx) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.initErr != nil {
		return false, f.initErr
	}
	if f.queryVec != nil {
		return false, nil
	}
	qv := f.QueryVec
	if qv == nil {
		var qresp *llm.Response
		var err error
		qv, qresp, err = ctx.Svc.Embed(CascadeEmbedModel, f.Filter.Predicate)
		if err != nil {
			f.initErr = err
			return false, err
		}
		ctx.Stats.noteLLM(ctx.curOp, f, qresp)
		f.queryCost = qresp.CostUSD
		f.queryLat = qresp.Latency
	}
	f.queryVec = qv
	return true, nil
}

// prefilterKeep decides one record's prefilter fate. Sidecar hits are
// free; misses fall back to a charged on-line embedding. The returned
// response is non-nil only for the fallback path.
func (f *CascadeFilterExec) prefilterKeep(ctx *Ctx, r *record.Record) (bool, *llm.Response, error) {
	if f.Lookup != nil {
		if vec, ok := f.Lookup.Vector(r.GetString("filename")); ok {
			return CascadeScore(vector.Cosine(f.queryVec, vec)) >= f.Threshold, nil, nil
		}
	}
	vec, resp, err := ctx.Svc.EmbedRecord(CascadeEmbedModel, r)
	if err != nil {
		return false, nil, err
	}
	return CascadeScore(vector.Cosine(f.queryVec, vec)) >= f.Threshold, resp, nil
}

// filterReq builds the completion request for one tier model — the same
// request LLMFilterExec would issue, which is what makes the degenerate
// mode byte-identical to the plain filter.
func (f *CascadeFilterExec) filterReq(model string, r *record.Record) llm.Request {
	return FilterRequest(model, f.Filter.Predicate, r)
}

// Execute implements Physical.
func (f *CascadeFilterExec) Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	if f.Threshold <= 0 {
		return f.executeDegenerate(ctx, in)
	}
	justInit, err := f.ensureInit(ctx)
	if err != nil {
		return nil, err
	}

	// Tier 1: vector prefilter over the sidecar.
	pre := TierStat{Tier: TierPrefilter, In: len(in)}
	var preLats []time.Duration
	if justInit && f.QueryVec == nil {
		// Only the predicate-embedding fallback is a charged call; a
		// calibration-built probe costs nothing at execution time.
		pre.LLMCalls++
		pre.CostUSD += f.queryCost
		preLats = append(preLats, f.queryLat)
	}
	keep := make([]bool, len(in))
	var surv []int
	for i, r := range in {
		if err := ctx.Canceled(); err != nil {
			return nil, err
		}
		ok, resp, err := f.prefilterKeep(ctx, r)
		if err != nil {
			return nil, err
		}
		if resp != nil {
			ctx.Stats.noteLLM(ctx.curOp, f, resp)
			pre.LLMCalls++
			pre.CostUSD += resp.CostUSD
			preLats = append(preLats, resp.Latency)
		}
		if ok {
			surv = append(surv, i)
		}
	}
	pre.Passed = len(surv)
	pre.Dropped = len(in) - len(surv)
	pre.Time = advanceForCalls(ctx, preLats)

	// Tier 2: cheap verify model over the survivors; low-confidence
	// verdicts escalate rather than settle.
	ver := TierStat{Tier: TierVerify, In: len(surv)}
	survRecs := make([]*record.Record, len(surv))
	for j, i := range surv {
		survRecs[j] = in[i]
	}
	type vres struct {
		keep, escalate bool
		cost           float64
		latency        time.Duration
	}
	vresults, err := runParallel(ctx, survRecs, func(r *record.Record) (vres, error) {
		resp, err := ctx.Client.Complete(f.filterReq(f.VerifyModel, r))
		if err != nil {
			return vres{}, err
		}
		ctx.Stats.noteLLM(ctx.curOp, f, resp)
		return vres{
			keep:     resp.Decision,
			escalate: resp.Confidence < f.resolveConfidence(),
			cost:     resp.CostUSD,
			latency:  resp.Latency,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var esc []int
	verLats := make([]time.Duration, 0, len(vresults))
	for j, v := range vresults {
		ver.LLMCalls++
		ver.CostUSD += v.cost
		verLats = append(verLats, v.latency)
		switch {
		case v.escalate:
			esc = append(esc, surv[j])
			ver.Passed++
		case v.keep:
			keep[surv[j]] = true
			ver.Emitted++
		default:
			ver.Dropped++
		}
	}
	ver.Time = advanceForCalls(ctx, verLats)

	// Tier 3: resolve model settles the escalations.
	res := TierStat{Tier: TierResolve, In: len(esc)}
	escRecs := make([]*record.Record, len(esc))
	for j, i := range esc {
		escRecs[j] = in[i]
	}
	type rres struct {
		keep    bool
		cost    float64
		latency time.Duration
	}
	rresults, err := runParallel(ctx, escRecs, func(r *record.Record) (rres, error) {
		resp, err := ctx.Client.Complete(f.filterReq(f.ResolveModel, r))
		if err != nil {
			return rres{}, err
		}
		ctx.Stats.noteLLM(ctx.curOp, f, resp)
		return rres{keep: resp.Decision, cost: resp.CostUSD, latency: resp.Latency}, nil
	})
	if err != nil {
		return nil, err
	}
	resLats := make([]time.Duration, 0, len(rresults))
	for j, v := range rresults {
		res.LLMCalls++
		res.CostUSD += v.cost
		resLats = append(resLats, v.latency)
		if v.keep {
			keep[esc[j]] = true
			res.Emitted++
		} else {
			res.Dropped++
		}
	}
	res.Time = advanceForCalls(ctx, resLats)

	var out []*record.Record
	for i, r := range in {
		if keep[i] {
			out = append(out, r)
		}
	}
	ctx.Stats.noteTier(ctx.curOp, f, pre)
	ctx.Stats.noteTier(ctx.curOp, f, ver)
	ctx.Stats.noteTier(ctx.curOp, f, res)
	ctx.Stats.noteTime(ctx.curOp, f, pre.Time+ver.Time+res.Time)
	ctx.Stats.noteBatch(ctx.curOp, f, len(in), len(out))
	return out, nil
}

// executeDegenerate is the Threshold<=0 path: prefilter passes everything
// untouched and the verify tier is bypassed, so the resolve model judges
// every record with exactly the requests LLMFilterExec would issue.
func (f *CascadeFilterExec) executeDegenerate(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	pre := TierStat{Tier: TierPrefilter, In: len(in), Passed: len(in)}
	res := TierStat{Tier: TierResolve, In: len(in)}
	type rres struct {
		keep    bool
		cost    float64
		latency time.Duration
	}
	results, err := runParallel(ctx, in, func(r *record.Record) (rres, error) {
		resp, err := ctx.Client.Complete(f.filterReq(f.ResolveModel, r))
		if err != nil {
			return rres{}, err
		}
		ctx.Stats.noteLLM(ctx.curOp, f, resp)
		return rres{keep: resp.Decision, cost: resp.CostUSD, latency: resp.Latency}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []*record.Record
	latencies := make([]time.Duration, 0, len(results))
	for i, v := range results {
		res.LLMCalls++
		res.CostUSD += v.cost
		latencies = append(latencies, v.latency)
		if v.keep {
			out = append(out, in[i])
			res.Emitted++
		} else {
			res.Dropped++
		}
	}
	res.Time = advanceForCalls(ctx, latencies)
	ctx.Stats.noteTier(ctx.curOp, f, pre)
	ctx.Stats.noteTier(ctx.curOp, f, res)
	ctx.Stats.noteTime(ctx.curOp, f, res.Time)
	ctx.Stats.noteBatch(ctx.curOp, f, len(in), len(out))
	return out, nil
}
