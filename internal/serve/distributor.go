package serve

import (
	"context"
	"time"

	"repro/internal/exec"
	"repro/internal/trace"
	"repro/pz"
)

// Distributor is the seam between the serving layer and the cluster
// coordinator (internal/cluster implements it; cmd/pzserve wires the two
// together). Keeping only this interface here lets serve stay free of a
// dependency on the cluster package while runJob offers it each query's
// plan.
type Distributor interface {
	// Scatter runs opt's plan for spec across the cluster at the given
	// partition fan-out. A non-empty reason with a nil error declines the
	// query before anything is spent: no_workers, not_ndjson,
	// one_partition (fan-out or partition index below 2) or
	// not_streamable (no operator a partition can run after the scan).
	// The caller then runs the same plan locally. A non-nil error is
	// either the run context's cancellation or a distributed failure the
	// caller may also resolve by running locally.
	Scatter(ctx context.Context, spec *Spec, opt *exec.Optimized, fanout int) (*DistResult, string, error)
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
	// partitions go in order to the least-loaded of W executors (W the
	// registered workers when the scatter starts), the scatter phase costs
	// the largest load, and the optimize and suffix times add to it.
	Elapsed time.Duration
	// CostUSD sums LLM spend across all partitions, the optimize step's
	// calibration and the coordinator's suffix execution.
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
