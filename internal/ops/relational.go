package ops

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/record"
)

// ScanExec is the single physical implementation of Scan.
type ScanExec struct {
	// Source is the dataset to read.
	Source dataset.Source
	// Parts is the partition fan-out resolved for this scan (0 = engine
	// default): when > 1, the pipelined executor reads up to that many
	// ranges of the source concurrently (see Layout). The optimizer
	// stamps it from Options.Partitions so cached plans keep their
	// fan-out.
	Parts int
}

// ID implements Physical.
func (s *ScanExec) ID() string { return fmt.Sprintf("scan(%s)", s.Source.Name()) }

// Kind implements Physical.
func (s *ScanExec) Kind() string { return "scan" }

// Streamable implements Streamer. The engine never calls Execute on a
// scan: it is the pipeline source, read through Stream.
func (s *ScanExec) Streamable() bool { return true }

// Estimate implements Physical. Scan sets the initial cardinality; the
// optimizer pre-populates in.Cardinality/AvgTokens from the source, so the
// estimate passes through. TimeSec is the sequential model — partition
// fan-out only shortens the pipelined estimate, which divides the
// streamable prefix by the scan's Partitions (see optimizer).
func (s *ScanExec) Estimate(in Estimate) Estimate {
	out := in
	if out.Quality == 0 {
		out.Quality = 1
	}
	out.TimeSec += in.Cardinality * cheapOpSecs
	return out
}

// Execute implements Physical: the whole dataset as one batch.
func (s *ScanExec) Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	if len(in) != 0 {
		return nil, fmt.Errorf("ops: scan received %d input records", len(in))
	}
	layout, err := s.Layout(1)
	if err != nil {
		return nil, err
	}
	var out []*record.Record
	err = s.Stream(ctx, 0, layout[0], math.MaxInt, func(recs []*record.Record) error {
		out = recs
		return nil
	})
	return out, err
}

// Layout returns the record count of each partition the scan streams as,
// in dataset order, for a fan-out of at most max: corpus.Layout over the
// source's Stats. It always has at least one entry; a source whose
// stride is its count (an unindexed corpus), or max < 2, gives one.
func (s *ScanExec) Layout(max int) ([]int, error) {
	st, err := s.Source.Stats()
	if err != nil {
		return nil, err
	}
	return corpus.Layout(st.NumRecords, st.Stride, max), nil
}

// Partitions is the fan-out the scan achieves for its stamped Parts: the
// hint clamped to what the source can provide, 1 for no fan-out. The
// optimizer's time model and the engine read the same Layout, so the two
// can never disagree.
func (s *ScanExec) Partitions() int {
	if s.Parts > 1 {
		if layout, err := s.Layout(s.Parts); err == nil {
			return len(layout)
		}
	}
	return 1
}

// Stream emits the source's records [lo, hi) in dataset order, in
// batches of up to size records, calling emit once per batch: a
// partition of the scan's Layout, whose start is on the source's stride.
// Each batch is a buffer of its own, filled from Source.Iterate, so
// memory stays bounded by the batch size rather than the dataset size.
// An empty range emits one empty batch, so every downstream stage still
// executes and records its stats row. Per-batch statistics sum to
// exactly what Execute records. An error from emit aborts the stream and
// is returned verbatim.
func (s *ScanExec) Stream(ctx *Ctx, lo, hi, size int, emit func([]*record.Record) error) error {
	// left is how many records are still to come: a batch buffer holds
	// min(batch, left), so a batch size far above the data never
	// preallocates beyond it.
	batch, left := max(size, 1), hi-lo
	buf := make([]*record.Record, 0, min(batch, left))
	flush := func() error {
		ctx.Stats.noteBatch(ctx.curOp, s, 0, len(buf))
		out := buf
		left = max(0, left-len(out))
		buf = make([]*record.Record, 0, min(batch, left))
		return emit(out)
	}
	err := s.Source.Iterate(lo, hi, func(r *record.Record) error {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		buf = append(buf, r)
		if len(buf) == batch {
			return flush()
		}
		return nil
	})
	// With nothing emitted yet (left untouched), the last batch goes out
	// even when empty.
	if err == nil && (len(buf) > 0 || left == hi-lo) {
		err = flush()
	}
	return err
}

// UDFFilterExec evaluates a Go predicate; zero LLM cost, perfect quality.
type UDFFilterExec struct {
	// Filter is the logical operator (UDF must be non-nil).
	Filter *Filter
}

// ID implements Physical.
func (u *UDFFilterExec) ID() string {
	name := u.Filter.UDFName
	if name == "" {
		name = "udf"
	}
	return fmt.Sprintf("udf-filter(%s)", name)
}

// Kind implements Physical.
func (u *UDFFilterExec) Kind() string { return "filter" }

// Streamable implements Streamer: the UDF judges records independently.
func (u *UDFFilterExec) Streamable() bool { return true }

// PreferredParallelism implements ParallelHinter: a UDF filter is pure Go
// with no LLM latency to overlap, so one worker suffices.
func (u *UDFFilterExec) PreferredParallelism(int) int { return 1 }

// Estimate implements Physical. Default selectivity 0.5.
func (u *UDFFilterExec) Estimate(in Estimate) Estimate {
	return estimateCheap(in, in.Cardinality*0.5)
}

// Execute implements Physical.
func (u *UDFFilterExec) Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	var out []*record.Record
	for _, r := range in {
		keep, err := u.Filter.UDF(r)
		if err != nil {
			return nil, fmt.Errorf("ops: udf filter: %w", err)
		}
		if keep {
			out = append(out, r)
		}
	}
	ctx.Stats.noteBatch(ctx.curOp, u, len(in), len(out))
	return out, nil
}

// ProjectExec is the physical Project.
type ProjectExec struct {
	// Project is the logical operator.
	Project *Project
}

// ID implements Physical.
func (p *ProjectExec) ID() string { return p.Project.Describe() }

// Kind implements Physical.
func (p *ProjectExec) Kind() string { return "project" }

// Streamable implements Streamer: projection is per-record.
func (p *ProjectExec) Streamable() bool { return true }

// PreferredParallelism implements ParallelHinter: projection is pure CPU.
func (p *ProjectExec) PreferredParallelism(int) int { return 1 }

// Estimate implements Physical.
func (p *ProjectExec) Estimate(in Estimate) Estimate {
	out := estimateCheap(in, in.Cardinality)
	// Projection shrinks records proportionally to dropped fields; a
	// rough 50% default keeps downstream token estimates sane.
	out.AvgTokens = in.AvgTokens * 0.5
	return out
}

// Execute implements Physical.
func (p *ProjectExec) Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	out := make([]*record.Record, 0, len(in))
	for _, r := range in {
		pr, err := r.Project(p.Project.Fields...)
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	ctx.Stats.noteBatch(ctx.curOp, p, len(in), len(out))
	return out, nil
}

// LimitExec is the physical Limit.
type LimitExec struct {
	// Limit is the logical operator.
	Limit *Limit
}

// ID implements Physical.
func (l *LimitExec) ID() string { return l.Limit.Describe() }

// Kind implements Physical.
func (l *LimitExec) Kind() string { return "limit" }

// Estimate implements Physical.
func (l *LimitExec) Estimate(in Estimate) Estimate {
	return estimateCheap(in, math.Min(in.Cardinality, float64(l.Limit.N)))
}

// Execute implements Physical.
func (l *LimitExec) Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	out := in
	if len(out) > l.Limit.N {
		out = out[:l.Limit.N]
	}
	ctx.Stats.noteBatch(ctx.curOp, l, len(in), len(out))
	return out, nil
}

// DistinctExec is the physical Distinct.
type DistinctExec struct {
	// Distinct is the logical operator.
	Distinct *Distinct
}

// ID implements Physical.
func (d *DistinctExec) ID() string { return d.Distinct.Describe() }

// Kind implements Physical.
func (d *DistinctExec) Kind() string { return "distinct" }

// Estimate implements Physical. Default duplicate rate 20%.
func (d *DistinctExec) Estimate(in Estimate) Estimate {
	return estimateCheap(in, in.Cardinality*0.8)
}

// Execute implements Physical.
func (d *DistinctExec) Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	seen := map[string]bool{}
	var out []*record.Record
	for _, r := range in {
		k := dedupKey(r, d.Distinct.Fields)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	ctx.Stats.noteBatch(ctx.curOp, d, len(in), len(out))
	return out, nil
}

// AggregateExec is the physical Aggregate.
type AggregateExec struct {
	// Aggregate is the logical operator.
	Aggregate *Aggregate
}

// ID implements Physical.
func (a *AggregateExec) ID() string { return a.Aggregate.Describe() }

// Kind implements Physical.
func (a *AggregateExec) Kind() string { return "aggregate" }

// Estimate implements Physical.
func (a *AggregateExec) Estimate(in Estimate) Estimate {
	out := estimateCheap(in, 1)
	out.AvgTokens = 8
	return out
}

// Execute implements Physical.
func (a *AggregateExec) Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	val, err := aggregate(a.Aggregate.Func, a.Aggregate.Field, in)
	if err != nil {
		return nil, err
	}
	out, err := record.New(aggSchema(a.Aggregate.Func, a.Aggregate.Field), map[string]any{
		"value": val, "count": len(in),
	})
	if err != nil {
		return nil, err
	}
	ctx.Stats.noteBatch(ctx.curOp, a, len(in), 1)
	return []*record.Record{out}, nil
}

func aggregate(f AggFunc, field string, in []*record.Record) (float64, error) {
	if f == AggCount {
		return float64(len(in)), nil
	}
	if len(in) == 0 {
		return 0, nil
	}
	var sum float64
	min, max := math.Inf(1), math.Inf(-1)
	for _, r := range in {
		v := r.GetFloat(field)
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	switch f {
	case AggSum:
		return sum, nil
	case AggAvg:
		return sum / float64(len(in)), nil
	case AggMin:
		return min, nil
	case AggMax:
		return max, nil
	default:
		return 0, fmt.Errorf("ops: unknown aggregate %v", f)
	}
}

// GroupByExec is the physical GroupBy.
type GroupByExec struct {
	// GroupBy is the logical operator.
	GroupBy *GroupBy
}

// ID implements Physical.
func (g *GroupByExec) ID() string { return g.GroupBy.Describe() }

// Kind implements Physical.
func (g *GroupByExec) Kind() string { return "groupby" }

// Estimate implements Physical. Default 10 groups (capped by input).
func (g *GroupByExec) Estimate(in Estimate) Estimate {
	return estimateCheap(in, math.Min(in.Cardinality, 10))
}

// Execute implements Physical.
func (g *GroupByExec) Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	if len(in) == 0 {
		ctx.Stats.noteBatch(ctx.curOp, g, 0, 0)
		return nil, nil
	}
	outSchema, err := g.GroupBy.OutputSchema(in[0].Schema())
	if err != nil {
		return nil, err
	}
	groups := map[string][]*record.Record{}
	var order []string
	for _, r := range in {
		k := dedupKey(r, g.GroupBy.Keys)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Strings(order)
	var out []*record.Record
	for _, k := range order {
		members := groups[k]
		val, err := aggregate(g.GroupBy.Func, g.GroupBy.Field, members)
		if err != nil {
			return nil, err
		}
		vals := map[string]any{"value": val, "count": len(members)}
		for _, key := range g.GroupBy.Keys {
			v, _ := members[0].Get(key)
			vals[key] = v
		}
		gr, err := record.New(outSchema, vals)
		if err != nil {
			return nil, err
		}
		out = append(out, gr)
	}
	ctx.Stats.noteBatch(ctx.curOp, g, len(in), len(out))
	return out, nil
}

// SortExec is the physical Sort.
type SortExec struct {
	// Sort is the logical operator.
	Sort *Sort
}

// ID implements Physical.
func (s *SortExec) ID() string { return s.Sort.Describe() }

// Kind implements Physical.
func (s *SortExec) Kind() string { return "sort" }

// Estimate implements Physical.
func (s *SortExec) Estimate(in Estimate) Estimate {
	return estimateCheap(in, in.Cardinality)
}

// Execute implements Physical.
func (s *SortExec) Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	out := make([]*record.Record, len(in))
	copy(out, in)
	field := s.Sort.Field
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		var less bool
		// Numeric when both parse as numbers, else lexicographic.
		fa, fb := a.GetFloat(field), b.GetFloat(field)
		if fa != 0 || fb != 0 || (a.GetString(field) == "0" && b.GetString(field) == "0") {
			less = fa < fb
		} else {
			less = a.GetString(field) < b.GetString(field)
		}
		if s.Sort.Descending {
			return !less
		}
		return less
	})
	ctx.Stats.noteBatch(ctx.curOp, s, len(in), len(out))
	return out, nil
}
