package ops

import (
	"fmt"
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
// records missing from the embedding sidecar.
const CascadeEmbedModel = "atlas-embed"

// DefaultResolveConfidence is the verify-tier confidence below which a
// record escalates to the resolve model. The oracle's confidence is
// calibrated so correct answers score >= 0.5 and most mistakes score below
// it (see llm.Response.Confidence).
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
// The optimizer's calibration (optimizer.CalibrateCascade) sets every
// field. The operator holds no per-run state, so one instance may run
// batches concurrently.
type CascadeFilterExec struct {
	// Filter is the logical operator.
	Filter *Filter
	// VerifyModel is the cheap model judging prefilter survivors.
	VerifyModel string
	// ResolveModel is the expensive model for low-confidence escalations.
	ResolveModel string
	// Threshold is the prefilter keep threshold on the normalized
	// similarity score CascadeScore.
	Threshold float64
	// QueryVec is the prefilter's query direction: the Rocchio probe the
	// optimizer learns from the calibration sample's gold labels (see
	// BuildCascadeProbe).
	QueryVec []float64
	// Lookup is the corpus's embedding sidecar index. Records missing
	// from it fall back to charged on-line embedding.
	Lookup *corpus.EmbedIndex
	// Cal holds the optimizer's calibration measurements.
	Cal *CascadeEstimates
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

// Estimate implements Physical. Sidecar lookups are free, so the
// prefilter costs only (cheap) per-record compute.
func (f *CascadeFilterExec) Estimate(in Estimate) Estimate {
	promptTok := int(in.AvgTokens) + FilterRequest(f.ResolveModel, f.Filter.Predicate, nil).InputTokens()
	const outTok = 2
	vcard, rcard := llm.MustCard(f.VerifyModel), llm.MustCard(f.ResolveModel)
	survivors := in.Cardinality * f.Cal.KeepRate
	escalations := survivors * f.Cal.EscalationRate
	out := in
	out.Cardinality = in.Cardinality * f.Cal.Selectivity
	out.CostUSD += survivors * vcard.Cost(promptTok, outTok)
	out.CostUSD += escalations * rcard.Cost(promptTok, outTok)
	out.TimeSec += in.Cardinality * cheapOpSecs
	out.TimeSec += survivors * vcard.Latency(promptTok, outTok).Seconds()
	out.TimeSec += escalations * rcard.Latency(promptTok, outTok).Seconds()
	out.Quality = in.Quality * f.Cal.F1
	return out
}

// CascadeScore maps a cosine similarity into the prefilter's [0,1] score
// space: (1+cos)/2, so a calibrated threshold is always positive although
// raw cosines against a Rocchio probe are routinely negative.
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

// prefilterKeep decides one record's prefilter fate. Sidecar hits are
// free; misses fall back to a charged on-line embedding. The returned
// response is non-nil only for the fallback path.
func (f *CascadeFilterExec) prefilterKeep(ctx *Ctx, r *record.Record) (bool, *llm.Response, error) {
	vec, ok := f.Lookup.Vector(r.GetString("filename"))
	var resp *llm.Response
	if !ok {
		var err error
		if vec, resp, err = ctx.Svc.EmbedRecord(CascadeEmbedModel, r); err != nil {
			return false, nil, err
		}
	}
	return CascadeScore(vector.Cosine(f.QueryVec, vec)) >= f.Threshold, resp, nil
}

// Execute implements Physical.
func (f *CascadeFilterExec) Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	keep := make([]bool, len(in))

	// Tier 1: vector prefilter over the sidecar.
	pre := TierStat{Tier: TierPrefilter, In: len(in)}
	var preLats []time.Duration
	var surv []*record.Record
	var survAt []int
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
			surv = append(surv, r)
			survAt = append(survAt, i)
		}
	}
	pre.Passed = len(surv)
	pre.Dropped = len(in) - len(surv)
	pre.Time = advanceForCalls(ctx, preLats)

	// Tier 2: cheap verify model over the survivors; low-confidence
	// verdicts escalate rather than settle.
	verdicts, verTime, err := judge(ctx, f, f.VerifyModel, f.Filter.Predicate, surv)
	if err != nil {
		return nil, err
	}
	ver := TierStat{Tier: TierVerify, In: len(surv), LLMCalls: len(verdicts), Time: verTime}
	var esc []*record.Record
	var escAt []int
	for j, resp := range verdicts {
		ver.CostUSD += resp.CostUSD
		switch {
		case resp.Confidence < DefaultResolveConfidence:
			esc = append(esc, surv[j])
			escAt = append(escAt, survAt[j])
			ver.Passed++
		case resp.Decision:
			keep[survAt[j]] = true
			ver.Emitted++
		default:
			ver.Dropped++
		}
	}

	// Tier 3: resolve model settles the escalations.
	verdicts, resTime, err := judge(ctx, f, f.ResolveModel, f.Filter.Predicate, esc)
	if err != nil {
		return nil, err
	}
	res := TierStat{Tier: TierResolve, In: len(esc), LLMCalls: len(verdicts), Time: resTime}
	for j, resp := range verdicts {
		res.CostUSD += resp.CostUSD
		if resp.Decision {
			keep[escAt[j]] = true
			res.Emitted++
		} else {
			res.Dropped++
		}
	}

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
