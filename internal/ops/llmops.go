package ops

import (
	"fmt"
	"time"

	"repro/internal/llm"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/vector"
)

// LLMFilterExec evaluates a natural-language predicate with one catalog
// model. One instance exists per model — these are the alternative physical
// implementations the paper describes ("a filter operation might be
// performed via different LLM models, each representing a distinct physical
// method").
type LLMFilterExec struct {
	// Filter is the logical operator.
	Filter *Filter
	// Model names the catalog model.
	Model string
	// SelEstimate overrides the default selectivity estimate; the
	// optimizer sets it after sentinel sampling. Zero means default (0.5).
	SelEstimate float64
}

// ID implements Physical.
func (f *LLMFilterExec) ID() string { return fmt.Sprintf("llm-filter(%s)", f.Model) }

// Kind implements Physical.
func (f *LLMFilterExec) Kind() string { return "filter" }

// Streamable implements Streamer: the filter judges each record
// independently, so any batch partition yields the same kept set.
func (f *LLMFilterExec) Streamable() bool { return true }

// selectivity returns the calibrated or default selectivity.
func (f *LLMFilterExec) selectivity() float64 {
	if f.SelEstimate > 0 {
		return f.SelEstimate
	}
	return 0.5
}

// Estimate implements Physical.
func (f *LLMFilterExec) Estimate(in Estimate) Estimate {
	card := llm.MustCard(f.Model)
	promptTok := in.AvgTokens + float64(FilterRequest(f.Model, f.Filter.Predicate, nil).InputTokens())
	outTok := 2.0
	out := in
	out.Cardinality = in.Cardinality * f.selectivity()
	out.CostUSD += in.Cardinality * card.Cost(int(promptTok), int(outTok))
	out.TimeSec += in.Cardinality * card.Latency(int(promptTok), int(outTok)).Seconds()
	out.Quality = in.Quality * card.FilterAccuracy()
	return out
}

// Execute implements Physical.
func (f *LLMFilterExec) Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	verdicts, elapsed, err := judge(ctx, f, f.Model, f.Filter.Predicate, in)
	if err != nil {
		return nil, err
	}
	var out []*record.Record
	for i, resp := range verdicts {
		if resp.Decision {
			out = append(out, in[i])
		}
	}
	ctx.Stats.noteTime(ctx.curOp, f, elapsed)
	ctx.Stats.noteBatch(ctx.curOp, f, len(in), len(out))
	return out, nil
}

// judge is the one loop that issues LLM filter calls: it sends
// FilterRequest(model, predicate, r) for every record at the context's
// parallelism, notes each response against op, and advances the clock
// once for the batch. It returns the responses in input order and the
// batch's simulated time.
func judge(ctx *Ctx, op Physical, model, predicate string, recs []*record.Record) ([]*llm.Response, time.Duration, error) {
	verdicts, err := runParallel(ctx, recs, func(r *record.Record) (*llm.Response, error) {
		resp, err := ctx.Client.Complete(FilterRequest(model, predicate, r))
		if err != nil {
			return nil, err
		}
		ctx.Stats.noteLLM(ctx.curOp, op, resp)
		return resp, nil
	})
	if err != nil {
		return nil, 0, err
	}
	latencies := make([]time.Duration, len(verdicts))
	for i, resp := range verdicts {
		latencies[i] = resp.Latency
	}
	return verdicts, advanceForCalls(ctx, latencies), nil
}

// FilterRequest builds the canonical completion request for judging a
// natural-language predicate over one record with one model. Every filter
// strategy (plain and cascade tiers, through judge, and the optimizer's
// cascade calibration) builds requests through this helper, so identical
// (model, predicate, record) triples are identical requests — the property
// response caching and the cascade request-identity test rely on. It
// builds no text: the request holds the record and the predicate, and the
// service prices its prompt from their lengths.
func FilterRequest(model, predicate string, r *record.Record) llm.Request {
	return llm.Request{
		Model:     model,
		Task:      llm.TaskFilter,
		Record:    r,
		Predicate: predicate,
	}
}

// EmbedFilterExec approximates a natural-language filter by embedding
// similarity: keep records whose cosine similarity to the predicate
// embedding is at least the batch mean, which guarantees a non-degenerate
// selectivity on any corpus. Far cheaper than an LLM filter, and lower
// quality — the optimizer's cost/quality trade-off in miniature.
type EmbedFilterExec struct {
	// Filter is the logical operator.
	Filter *Filter
	// SelEstimate is the calibrated selectivity (0 = default 0.5).
	SelEstimate float64
}

// ID implements Physical.
func (f *EmbedFilterExec) ID() string { return "embed-filter(atlas-embed)" }

// Kind implements Physical. EmbedFilterExec is deliberately NOT
// streamable: it thresholds on the whole batch's mean similarity, so
// partitioning the input would change the kept set.
func (f *EmbedFilterExec) Kind() string { return "filter" }

// EmbedFilterQuality is the modeled quality of embedding-similarity
// filtering relative to gold labels.
const EmbedFilterQuality = 0.72

// Estimate implements Physical.
func (f *EmbedFilterExec) Estimate(in Estimate) Estimate {
	card := llm.MustCard("atlas-embed")
	sel := f.SelEstimate
	if sel <= 0 {
		sel = 0.5
	}
	out := in
	out.Cardinality = in.Cardinality * sel
	out.CostUSD += in.Cardinality * card.Cost(int(in.AvgTokens), 0)
	out.TimeSec += in.Cardinality * card.Latency(int(in.AvgTokens), 0).Seconds()
	out.Quality = in.Quality * EmbedFilterQuality
	return out
}

// Execute implements Physical.
func (f *EmbedFilterExec) Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	qv, qresp, err := ctx.Svc.Embed("atlas-embed", f.Filter.Predicate)
	if err != nil {
		return nil, err
	}
	ctx.Stats.noteLLM(ctx.curOp, f, qresp)
	latencies := []time.Duration{qresp.Latency}
	sims := make([]float64, len(in))
	var sum float64
	for i, r := range in {
		if err := ctx.Canceled(); err != nil {
			return nil, err
		}
		rv, resp, err := ctx.Svc.EmbedRecord("atlas-embed", r)
		if err != nil {
			return nil, err
		}
		ctx.Stats.noteLLM(ctx.curOp, f, resp)
		latencies = append(latencies, resp.Latency)
		sims[i] = vector.Cosine(qv, rv)
		sum += sims[i]
	}
	mean := sum / float64(len(in))
	var out []*record.Record
	for i, r := range in {
		// The epsilon keeps the filter non-degenerate when every
		// similarity is identical: the accumulated mean can round one ULP
		// above the common value, which would otherwise drop every record.
		if sims[i] >= mean-1e-9 {
			out = append(out, r)
		}
	}
	elapsed := advanceForCalls(ctx, latencies)
	ctx.Stats.noteTime(ctx.curOp, f, elapsed)
	ctx.Stats.noteBatch(ctx.curOp, f, len(in), len(out))
	return out, nil
}

// LLMConvertExec computes a Convert with one catalog model, either bonded
// (all fields in one call) or field-at-a-time (one call per new field:
// more calls and cost, slightly better per-field quality — the classic
// Palimpzest conversion-strategy trade-off).
type LLMConvertExec struct {
	// Convert is the logical operator.
	Convert *Convert
	// Model names the catalog model.
	Model string
	// Bonded selects the all-fields-in-one-call strategy.
	Bonded bool
	// FanoutEstimate is the expected outputs per input for OneToMany
	// (0 = default 1.5). The optimizer calibrates it by sampling.
	FanoutEstimate float64
}

// ID implements Physical.
func (c *LLMConvertExec) ID() string {
	strat := "bonded"
	if !c.Bonded {
		strat = "fieldwise"
	}
	return fmt.Sprintf("llm-convert(%s, %s)", c.Model, strat)
}

// Kind implements Physical.
func (c *LLMConvertExec) Kind() string { return "convert" }

// Streamable implements Streamer: each record converts independently and
// children inherit the input order, so batches decompose cleanly.
func (c *LLMConvertExec) Streamable() bool { return true }

// FieldwiseQualityBonus is the modeled quality advantage of converting one
// field per call.
const FieldwiseQualityBonus = 0.03

func (c *LLMConvertExec) fanout() float64 {
	if c.FanoutEstimate > 0 {
		return c.FanoutEstimate
	}
	if c.Convert.Card == OneToMany {
		return 1.5
	}
	return 1
}

// Estimate implements Physical.
func (c *LLMConvertExec) Estimate(in Estimate) Estimate {
	card := llm.MustCard(c.Model)
	nFields := float64(len(c.Convert.Target.Fields()))
	if nFields == 0 {
		nFields = 1
	}
	promptTok := in.AvgTokens + 60
	outTokPerRec := 20.0 * nFields * c.fanout()
	calls := 1.0
	if !c.Bonded {
		calls = nFields
		outTokPerRec = outTokPerRec / nFields * 1.1
	}
	quality := card.ExtractAccuracy()
	if !c.Bonded {
		quality += FieldwiseQualityBonus
		if quality > 1 {
			quality = 1
		}
	}
	out := in
	out.Cardinality = in.Cardinality * c.fanout()
	out.CostUSD += in.Cardinality * calls * card.Cost(int(promptTok), int(outTokPerRec))
	out.TimeSec += in.Cardinality * calls * card.Latency(int(promptTok), int(outTokPerRec)).Seconds()
	out.Quality = in.Quality * quality
	out.AvgTokens = 20 * nFields
	return out
}

// Execute implements Physical.
func (c *LLMConvertExec) Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	if len(in) == 0 {
		ctx.Stats.noteBatch(ctx.curOp, c, 0, 0)
		return nil, nil
	}
	newFields := schema.NewFields(in[0].Schema(), c.Convert.Target)
	if len(newFields) == 0 {
		// Nothing to compute; pass records through re-typed.
		var out []*record.Record
		for _, r := range in {
			nr, err := r.Derive(c.Convert.Target, nil)
			if err != nil {
				return nil, err
			}
			out = append(out, nr)
		}
		ctx.Stats.noteBatch(ctx.curOp, c, len(in), len(out))
		return out, nil
	}

	type res struct {
		children []*record.Record
		latency  time.Duration
	}
	results, err := runParallel(ctx, in, func(r *record.Record) (res, error) {
		if c.Bonded {
			return c.convertBonded(ctx, r, newFields)
		}
		return c.convertFieldwise(ctx, r, newFields)
	})
	if err != nil {
		return nil, err
	}
	var out []*record.Record
	latencies := make([]time.Duration, 0, len(results))
	for _, r := range results {
		latencies = append(latencies, r.latency)
		out = append(out, r.children...)
	}
	elapsed := advanceForCalls(ctx, latencies)
	ctx.Stats.noteTime(ctx.curOp, c, elapsed)
	ctx.Stats.noteBatch(ctx.curOp, c, len(in), len(out))
	return out, nil
}

func (c *LLMConvertExec) convertBonded(ctx *Ctx, r *record.Record, fields []schema.Field) (struct {
	children []*record.Record
	latency  time.Duration
}, error) {
	type res = struct {
		children []*record.Record
		latency  time.Duration
	}
	resp, err := ctx.Client.Complete(llm.Request{
		Model:     c.Model,
		Task:      llm.TaskExtract,
		Record:    r,
		Desc:      c.Convert.Desc,
		Fields:    fields,
		OneToMany: c.Convert.Card == OneToMany,
	})
	if err != nil {
		return res{}, err
	}
	ctx.Stats.noteLLM(ctx.curOp, c, resp)
	children, err := deriveAll(r, c.Convert.Target, resp.Extractions)
	if err != nil {
		return res{}, err
	}
	return res{children: children, latency: resp.Latency}, nil
}

func (c *LLMConvertExec) convertFieldwise(ctx *Ctx, r *record.Record, fields []schema.Field) (struct {
	children []*record.Record
	latency  time.Duration
}, error) {
	type res = struct {
		children []*record.Record
		latency  time.Duration
	}
	// One call per field; entity alignment follows the first field's
	// extraction count.
	var merged []map[string]string
	var total time.Duration
	for i, f := range fields {
		one := fields[i : i+1]
		resp, err := ctx.Client.Complete(llm.Request{
			Model:        c.Model,
			Task:         llm.TaskExtract,
			Record:       r,
			Desc:         c.Convert.Desc,
			Fields:       one,
			OneToMany:    c.Convert.Card == OneToMany,
			QualityBoost: FieldwiseQualityBonus,
		})
		if err != nil {
			return res{}, err
		}
		ctx.Stats.noteLLM(ctx.curOp, c, resp)
		total += resp.Latency
		if i == 0 {
			merged = make([]map[string]string, len(resp.Extractions))
			for j := range resp.Extractions {
				merged[j] = map[string]string{f.Name: resp.Extractions[j][f.Name]}
			}
			continue
		}
		for j := range merged {
			if j < len(resp.Extractions) {
				merged[j][f.Name] = resp.Extractions[j][f.Name]
			}
		}
	}
	children, err := deriveAll(r, c.Convert.Target, merged)
	if err != nil {
		return res{}, err
	}
	return res{children: children, latency: total}, nil
}

// deriveAll materializes extraction maps as child records.
func deriveAll(parent *record.Record, target *schema.Schema, exs []map[string]string) ([]*record.Record, error) {
	var out []*record.Record
	for _, ex := range exs {
		vals := make(map[string]any, len(ex))
		for k, v := range ex {
			if target.Has(k) {
				vals[k] = v
			}
		}
		child, err := parent.Derive(target, vals)
		if err != nil {
			// A garbled numeric value that fails coercion models a real
			// extraction failure: drop the entity rather than abort.
			continue
		}
		out = append(out, child)
	}
	return out, nil
}

// RetrieveExec keeps the top-K records most similar to the query: it
// embeds every record and the query, then takes vector.TopK.
type RetrieveExec struct {
	// Retrieve is the logical operator.
	Retrieve *Retrieve
}

// ID implements Physical.
func (r *RetrieveExec) ID() string { return fmt.Sprintf("retrieve(k=%d)", r.Retrieve.K) }

// Kind implements Physical.
func (r *RetrieveExec) Kind() string { return "retrieve" }

// RetrieveQuality is the modeled quality of embedding retrieval.
const RetrieveQuality = 0.90

// Estimate implements Physical.
func (r *RetrieveExec) Estimate(in Estimate) Estimate {
	card := llm.MustCard("atlas-embed")
	out := in
	k := float64(r.Retrieve.K)
	if k > in.Cardinality {
		k = in.Cardinality
	}
	out.Cardinality = k
	out.CostUSD += (in.Cardinality + 1) * card.Cost(int(in.AvgTokens), 0)
	out.TimeSec += (in.Cardinality + 1) * card.Latency(int(in.AvgTokens), 0).Seconds()
	out.Quality = in.Quality * RetrieveQuality
	return out
}

// Execute implements Physical.
func (r *RetrieveExec) Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	if len(in) == 0 {
		ctx.Stats.noteBatch(ctx.curOp, r, 0, 0)
		return nil, nil
	}
	items := make([]vector.Item, 0, len(in))
	byID := make(map[int64]*record.Record, len(in))
	var latencies []time.Duration
	for _, rec := range in {
		if err := ctx.Canceled(); err != nil {
			return nil, err
		}
		vec, resp, err := ctx.Svc.EmbedRecord("atlas-embed", rec)
		if err != nil {
			return nil, err
		}
		ctx.Stats.noteLLM(ctx.curOp, r, resp)
		latencies = append(latencies, resp.Latency)
		items = append(items, vector.Item{ID: rec.ID(), Vec: vec})
		byID[rec.ID()] = rec
	}
	qv, qresp, err := ctx.Svc.Embed("atlas-embed", r.Retrieve.Query)
	if err != nil {
		return nil, err
	}
	ctx.Stats.noteLLM(ctx.curOp, r, qresp)
	latencies = append(latencies, qresp.Latency)

	hits := vector.TopK(items, qv, r.Retrieve.K)
	out := make([]*record.Record, 0, len(hits))
	for _, h := range hits {
		out = append(out, byID[h.ID])
	}
	elapsed := advanceForCalls(ctx, latencies)
	ctx.Stats.noteTime(ctx.curOp, r, elapsed)
	ctx.Stats.noteBatch(ctx.curOp, r, len(in), len(out))
	return out, nil
}
