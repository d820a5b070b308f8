package ops

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/record"
)

// ScanExec is the single physical implementation of Scan.
type ScanExec struct {
	// Source is the dataset to read.
	Source dataset.Source
	// Parts is the partition fan-out resolved for this scan (0 = engine
	// default): when > 1 and the source is partitionable, the pipelined
	// executor opens up to that many independent range readers (see
	// Layout). The optimizer
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

// Execute implements Physical.
func (s *ScanExec) Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error) {
	if len(in) != 0 {
		return nil, fmt.Errorf("ops: scan received %d input records", len(in))
	}
	recs, err := s.Source.Records()
	if err != nil {
		return nil, err
	}
	ctx.Stats.noteBatch(ctx.curOp, s, 0, len(recs))
	return recs, nil
}

// Layout returns the record count of each partition the scan streams as,
// in dataset order, for a fan-out of at most max. It always has at least
// one entry: a source that cannot split (no dataset.PartitionedSource
// index, a corpus too small, max < 2) streams as one partition, reported
// as {-1} because its size is unknown until read. The engine
// numbers batches from the counts of the partitions before the last, so
// the lone entry is never consulted.
func (s *ScanExec) Layout(max int) []int {
	if ps, ok := s.Source.(dataset.PartitionedSource); ok && max > 1 {
		if layout := ps.PartitionLayout(max); len(layout) > 1 {
			return layout
		}
	}
	return []int{-1}
}

// Partitions is the fan-out the scan achieves for its stamped Parts: the
// hint clamped to what the source can provide, 1 for no fan-out. The
// optimizer's time model and the engine read the same Layout, so the two
// can never disagree.
func (s *ScanExec) Partitions() int {
	if s.Parts < 2 {
		return 1
	}
	return len(s.Layout(s.Parts))
}

// Stream emits partition part of the scan's parts-way Layout in dataset
// order, in batches of up to size records, calling emit once per batch;
// parts = 1 streams the whole dataset. A source that supports incremental
// iteration (dataset.RecordIterator — e.g. a file-backed NDJSON corpus)
// is read batch by batch, so memory stays bounded by the batch size
// rather than the corpus size; any other source is materialized once and
// emitted as sub-slices of its records. An empty partition emits one
// empty batch, so every downstream stage still executes and records its
// stats row. Per-batch statistics sum to exactly what Execute records.
// An error from emit aborts the stream and is returned verbatim.
func (s *ScanExec) Stream(ctx *Ctx, parts, part, size int, emit func([]*record.Record) error) error {
	if size < 1 {
		size = 1
	}
	// left is how many records are still to come when the source knows
	// its count (-1 when it does not). Batch buffers start at
	// min(size, left), empty when the count is unknown, and grow by
	// append, so a batch size far above the data never preallocates
	// beyond it.
	left := -1
	var iterate func(func(*record.Record) error) error
	if parts > 1 {
		ps, ok := s.Source.(dataset.PartitionedSource)
		if !ok {
			return fmt.Errorf("ops: scan source %s is not partitionable", s.Source.Name())
		}
		if layout := ps.PartitionLayout(parts); part < len(layout) {
			left = layout[part]
		}
		iterate = func(yield func(*record.Record) error) error {
			return ps.IteratePartition(parts, part, yield)
		}
	} else if it, ok := s.Source.(dataset.RecordIterator); ok {
		if st, ok := s.Source.(dataset.Stater); ok {
			if stats, ok := st.Stats(); ok {
				left = stats.NumRecords
			}
		}
		iterate = it.IterateRecords
	} else {
		recs, err := s.Source.Records()
		if err != nil {
			return err
		}
		ctx.Stats.noteBatch(ctx.curOp, s, 0, len(recs))
		for off := 0; ; off += size {
			end := min(off+size, len(recs))
			if err := emit(recs[off:end:end]); err != nil || end == len(recs) {
				return err
			}
		}
	}
	newBuf := func() []*record.Record {
		return make([]*record.Record, 0, min(size, max(left, 0)))
	}
	buf := newBuf()
	emitted := false
	flush := func() error {
		ctx.Stats.noteBatch(ctx.curOp, s, 0, len(buf))
		out := buf
		emitted = true
		if left >= 0 {
			left = max(0, left-len(out))
		}
		buf = newBuf()
		return emit(out)
	}
	err := iterate(func(r *record.Record) error {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		buf = append(buf, r)
		if len(buf) == size {
			return flush()
		}
		return nil
	})
	if err == nil && (len(buf) > 0 || !emitted) {
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
