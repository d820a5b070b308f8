package serve

import (
	"context"
	"time"

	"repro/internal/trace"
	"repro/pz"
)

// Distributor is the seam between the serving layer and the cluster
// coordinator (internal/cluster implements it; cmd/pzserve wires the two
// together). Keeping only this interface here lets serve stay free of a
// dependency on the cluster package while runJob routes partitioned
// queries through it.
type Distributor interface {
	// TryExecute attempts distributed execution of spec at the given
	// partition fan-out. ok=false with a nil error means the query is not
	// distributable (non-NDJSON dataset, no partition index, empty worker
	// pool, no operator a partition can run after the scan) and the
	// caller should execute locally.
	// A non-nil error is either the run context's cancellation or a
	// distributed failure the caller may also resolve by running locally.
	TryExecute(ctx context.Context, pzctx *pz.Context, spec *Spec, fanout int) (*DistResult, bool, error)
	// Workers snapshots the worker pool for /metrics.
	Workers() []WorkerView
}

// DistResult is one distributed query's gathered outcome.
type DistResult struct {
	// Records are the merged output records, byte-identical (and
	// identically ordered) to a local sequential run of the same spec.
	Records []*pz.Record
	// Plan describes the scatter for display ("cluster-scatter(...)").
	Plan string
	// Elapsed is the simulated runtime under the cluster clock model:
	// workers execute their assigned partitions serially and in parallel
	// with each other, so the scatter phase costs the slowest worker's
	// total.
	Elapsed time.Duration
	// CostUSD sums LLM spend across all partitions plus the coordinator's
	// suffix execution.
	CostUSD float64
	// Workers and Partitions describe the fan-out that actually ran.
	Workers    int
	Partitions int
	// Trace is the coordinator's span tree: a query root over the
	// scatter phase (one partition span per scattered partition, each
	// embedding the executing side's own worker spans) and any local
	// suffix run.
	Trace *trace.Span
}

// WorkerView is the wire form of one registered worker in /metrics.
type WorkerView struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Failures int    `json:"failures"`
}
