// Package cluster promotes the serving layer into a coordinator/worker
// topology for partitioned NDJSON scans. The coordinator splits an
// indexed corpus by its manifest partition index (the same byte-offset
// table behind in-process partition-parallel scans), scatters one
// sub-plan per partition across a registry of pzworker daemons, and
// merges the streamed results back in partition order — so a distributed
// query's records are byte-identical, in identical order, to the
// single-process sequential scan. Robustness is first-class: periodic
// worker health checks with deregistration, per-partition timeouts with
// bounded retry and re-scatter to a healthy worker, speculative
// re-issue of straggling partitions, and graceful fallback to local
// partition execution when the worker pool drains mid-query. See
// docs/architecture.md §8.
package cluster

import (
	"context"
	"encoding/base64"
	"fmt"
	"slices"
	"time"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/pz"
)

// PartitionRequest is the coordinator→worker wire form of one scattered
// partition: a sub-plan in the existing serve.Spec format plus the byte
// range of the corpus slice it runs over. The worker opens its own
// OpenNDJSONRange reader for [Offset, Offset+Docs) of the named dataset's
// backing file, so nothing but the spec and the range crosses the wire.
type PartitionRequest struct {
	// Spec is the sub-plan: the logical operators of the coordinator's
	// scattered plan prefix, in plan order. Spec.Dataset.Name must
	// resolve against the worker's own dataset registry.
	Spec serve.Spec `json:"spec"`
	// PlanSig pins the physical plan: the op-ID signature of the
	// coordinator's plan prefix (see PlanSignature). The worker must
	// execute exactly these physical operators — re-optimizing over a
	// partition's local statistics could pick a different model or
	// strategy, whose content-keyed noise would break byte-identity with
	// the sequential scan. Empty lets the worker use its own champion.
	PlanSig []string `json:"plan_sig,omitempty"`
	// Partition is the partition ordinal in corpus order — it tags every
	// response chunk so the coordinator can merge globally.
	Partition int `json:"partition"`
	// Offset is the byte offset of the partition's first document line.
	Offset int64 `json:"offset"`
	// Docs is the partition's exact document count.
	Docs int `json:"docs"`
}

// PlanSignature renders a physical plan as its ordered op-ID list — the
// wire form of a plan choice. Op IDs carry their full parameterization
// (model, strategy, thresholds), so equal signatures mean physically
// identical execution.
func PlanSignature(p *pz.Plan) []string {
	out := make([]string, len(p.Ops))
	for i, op := range p.Ops {
		out[i] = op.ID()
	}
	return out
}

// WireRecord is one record crossing the worker→coordinator wire: the
// schema field values, the hidden ground-truth annotation (downstream
// LLM operators on the coordinator need it to stay deterministic), and
// the source label.
type WireRecord struct {
	Values map[string]any `json:"values"`
	Truth  *corpus.Truth  `json:"truth,omitempty"`
	Source string         `json:"source,omitempty"`
}

// PartitionChunk is one NDJSON line of a worker's streamed partition
// response. Records arrive in seq order; the terminal chunk has Done set
// and carries the partition's simulated elapsed time and LLM cost. A
// stream that ends without a Done chunk signals a worker that died
// mid-partition, and the coordinator re-scatters.
type PartitionChunk struct {
	Seq     int          `json:"seq"`
	Records []WireRecord `json:"records,omitempty"`
	Done    bool         `json:"done,omitempty"`
	// ElapsedSimMS and CostUSD summarize the partition run (Done chunk
	// only).
	ElapsedSimMS int64   `json:"elapsed_sim_ms,omitempty"`
	CostUSD      float64 `json:"cost_usd,omitempty"`
	// Trace is the partition run's span tree (Done chunk only), so the
	// coordinator can embed worker-side spans under its own partition
	// spans.
	Trace *trace.Span `json:"trace,omitempty"`
	// Error reports a worker-side execution failure (terminal).
	Error string `json:"error,omitempty"`
}

// PartitionResult is one partition's gathered output, normalized back
// into engine records.
type PartitionResult struct {
	Records []*record.Record
	Elapsed time.Duration
	CostUSD float64
	// Trace is the executing side's span tree for the partition run.
	Trace *trace.Span
}

// EncodeRecords renders records into their wire form.
func EncodeRecords(recs []*record.Record) []WireRecord {
	out := make([]WireRecord, len(recs))
	for i, r := range recs {
		out[i] = WireRecord{Values: r.Values(), Truth: corpus.TruthOf(r), Source: r.Source()}
	}
	return out
}

// DecodeRecords rebuilds engine records from their wire form under the
// sub-plan's output schema. record.New's coercion absorbs JSON's type
// flattening (float64→int64, []any→[]string); Bytes fields come back as
// base64 strings and are decoded here before coercion sees them.
func DecodeRecords(s *schema.Schema, wire []WireRecord) ([]*record.Record, error) {
	out := make([]*record.Record, len(wire))
	for i, w := range wire {
		vals := w.Values
		for _, f := range s.Fields() {
			if f.Type != schema.Bytes {
				continue
			}
			if str, ok := vals[f.Name].(string); ok {
				b, err := base64.StdEncoding.DecodeString(str)
				if err != nil {
					return nil, fmt.Errorf("cluster: record %d field %s: %w", i, f.Name, err)
				}
				vals[f.Name] = b
			}
		}
		rec, err := record.New(s, vals)
		if err != nil {
			return nil, fmt.Errorf("cluster: record %d: %w", i, err)
		}
		rec.SetSource(w.Source)
		if w.Truth != nil {
			rec.SetTruth(corpus.TruthKey, w.Truth)
		}
		out[i] = rec
	}
	return out, nil
}

// ExecutePartition runs one scattered partition in-process: a fresh
// pz.Context with an NDJSONRangeSource registered over the request's
// byte range, the sub-plan built against it, and the result gathered
// whole. Both sides of the wire share this path — the worker daemon
// serves it over HTTP, and the coordinator calls it directly as the
// local fallback when no healthy workers remain — so a partition
// executes identically wherever it lands. path locates the corpus file
// on this machine (registries may differ between coordinator and
// workers).
func ExecutePartition(ctx context.Context, req *PartitionRequest, path string, parallelism int) (*PartitionResult, error) {
	if req.Docs < 1 {
		return nil, fmt.Errorf("cluster: partition %d has %d documents", req.Partition, req.Docs)
	}
	pzctx, err := pz.NewContext(pz.Config{Parallelism: parallelism})
	if err != nil {
		return nil, err
	}
	name := req.Spec.Dataset.Name
	if name == "" {
		name = "dataset"
	}
	src, err := dataset.NewNDJSONRangeSource(name, path, req.Offset, req.Docs)
	if err != nil {
		return nil, err
	}
	if err := pzctx.Register(src); err != nil {
		return nil, err
	}
	sub := req.Spec
	sub.Dataset = serve.DatasetSpec{Name: name}
	sub.Partitions = 0
	ds, err := sub.Build(pzctx)
	if err != nil {
		return nil, err
	}
	policy, err := sub.ParsePolicy()
	if err != nil {
		return nil, err
	}
	champion, candidates, err := pzctx.OptimizeOnly(ds, policy)
	if err != nil {
		return nil, err
	}
	plan := champion
	if len(req.PlanSig) > 0 {
		plan = nil
		for _, cand := range candidates {
			if slices.Equal(PlanSignature(cand), req.PlanSig) {
				plan = cand
				break
			}
		}
		if plan == nil {
			return nil, fmt.Errorf("cluster: partition %d cannot realize pinned plan %v", req.Partition, req.PlanSig)
		}
	}
	res, err := pzctx.ExecutePlanContext(ctx, plan, policy.Describe())
	if err != nil {
		return nil, err
	}
	return &PartitionResult{Records: res.Records, Elapsed: res.Elapsed, CostUSD: res.CostUSD, Trace: res.Trace}, nil
}
