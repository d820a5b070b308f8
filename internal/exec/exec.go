// Package exec implements Palimpzest's execution engine: it runs a chosen
// physical plan over its dataset, collecting the per-operator statistics
// the paper's Figure 5 panel displays ("users can gain insights into the
// workload execution by asking the system to provide statistics such as
// how much runtime was needed to produce the output, and how much the LLM
// invocations costed").
//
// One engine runs every plan (pipeline.go): operator stages connected by
// bounded channels of sequence-tagged record batches, with per-stage
// worker pools, backpressure, first-error cancellation, and deterministic
// output ordering. At Parallelism <= 1 with no partition fan-out the plan
// runs as one batch per stage: no two stages overlap, so the modeled
// wall-clock is the sum of the operator times. Otherwise the scan streams
// batches and a segment of streamable stages costs its slowest stage, not
// the sum. Records and per-operator call/token/cost statistics are the
// same either way. See docs/architecture.md for the full dataflow.
//
// LLM latency is modeled on a virtual clock (internal/simclock), so the
// reported runtime has the paper's magnitude (hundreds of seconds for the
// demo workload) while actual execution takes milliseconds.
package exec

import (
	"context"
	"fmt"
	"maps"
	"strings"
	"sync"
	"time"

	"repro/internal/llm"
	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Config is the engine configuration: every run knob, declared once.
// pz.Config is an alias of it, and Validate, which NewExecutor calls, is
// the one check of its values. A pipeline may override Partitions and
// ReoptAfterBatches for its own run (pz's WithPartitions and WithReopt);
// OptimizerOptions folds those overrides in.
type Config struct {
	// Parallelism is the maximum concurrent LLM calls per operator
	// (default 1). Beyond 1, stages overlap: the scan streams batches of
	// StreamBatchSize records through them.
	Parallelism int
	// Partitions is the partition fan-out for scans: any source splits
	// at its stride (see ops.ScanExec.Layout), an NDJSON corpus at the
	// checkpoints of its byte-offset partition index (see
	// docs/howto-corpus.md). When > 1 the engine runs one source+map
	// pipeline per partition, each reading its own range of the source
	// with Parallelism-wide worker pools, and merges results
	// back into exact dataset order, so outputs stay byte-identical to a
	// sequential scan. 0/1 keeps the single streaming reader; a plan
	// whose scan carries its own fan-out (ops.ScanExec.Parts, stamped by
	// the optimizer) overrides this default.
	Partitions int
	// SampleSize enables sentinel calibration over that many records.
	SampleSize int
	// ReoptAfterBatches enables adaptive mid-flight re-optimization: after
	// every re-orderable filter stage has processed this many batches, the
	// engine compares observed selectivity and cost against the
	// plan's estimates and — past optimizer.ReoptDivergence — hot-swaps the
	// remaining batches onto a cheaper filter ordering. Outputs stay
	// byte-identical; only cost/time change. 0 disables (default).
	// Runs that cannot swap mid-flight (one batch per stage, partitioned,
	// or shorter than the observation window) still fold observed statistics
	// into the corrected plan the serving plan cache keeps.
	ReoptAfterBatches int
	// EstimatePriors seeds the optimizer's per-position cost-model
	// estimates (selectivity for filters, fan-out for converts) when
	// sentinel sampling is off — the operating point re-optimization
	// recovers from when the priors turn out wrong. Keyed by logical
	// plan position; ignored when SampleSize > 0 (measured statistics
	// beat seeded priors).
	EstimatePriors optimizer.Calibration
	// EnableCache memoizes LLM responses across runs: re-executing a
	// pipeline over unchanged data costs (almost) nothing.
	EnableCache bool
	// CacheCapacity bounds the LLM response cache to that many entries
	// (0 = unbounded). The cache is an lru.Cache: past the bound it
	// evicts the least recently used response, and equal requests that
	// miss together make one call. Only meaningful with EnableCache;
	// serving deployments should set it so sustained traffic cannot grow
	// the cache without limit.
	CacheCapacity int
	// StreamBatchSize is the record batch size flowing between stages
	// when they overlap (default 8). A run whose stages cannot overlap
	// (see Run) is one batch per stage and ignores it. Values below
	// Parallelism are raised to it so a small batch cannot starve the
	// per-stage worker pools.
	StreamBatchSize int
	// OnProgress, when set, receives progress events: one per completed
	// batch per stage — so one per operator, in plan order, on a
	// one-batch run. Events are serialized; the callback never runs
	// concurrently with itself.
	OnProgress func(Progress)
}

// Executor owns the LLM service, virtual clock, and retry client for a
// sequence of pipeline runs. Usage accumulates across runs.
type Executor struct {
	svc        *llm.Service
	clock      *simclock.Sim
	client     llm.Completer
	cache      *llm.Cache
	cfg        Config
	progressMu sync.Mutex
}

// faults configures the LLM retry loop and injected transient failures.
type faults struct {
	maxAttempts int
	backoff     time.Duration
	failureRate float64
}

// Validate rejects a negative knob; zero selects each one's default.
func (c Config) Validate() error {
	for _, k := range []struct {
		name string
		v    int
	}{
		{"Parallelism", c.Parallelism}, {"Partitions", c.Partitions},
		{"SampleSize", c.SampleSize}, {"ReoptAfterBatches", c.ReoptAfterBatches},
		{"CacheCapacity", c.CacheCapacity}, {"StreamBatchSize", c.StreamBatchSize},
	} {
		if k.v < 0 {
			return fmt.Errorf("exec: negative %s %d", k.name, k.v)
		}
	}
	return nil
}

// NewExecutor builds an executor for a valid cfg (see Validate).
func NewExecutor(cfg Config) (*Executor, error) {
	return newExecutor(cfg, faults{maxAttempts: 3, backoff: 200 * time.Millisecond})
}

func newExecutor(cfg Config, f faults) (*Executor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 1
	}
	// The engine keeps its own priors, so a caller editing its map later
	// cannot change what a cached plan's fingerprint claims.
	cfg.EstimatePriors = maps.Clone(cfg.EstimatePriors)
	svc := llm.NewService()
	if f.failureRate > 0 {
		svc.WithFailureRate(f.failureRate)
	}
	clock := simclock.NewSim()
	retry, err := llm.NewRetryClient(svc, clock, f.maxAttempts, f.backoff)
	if err != nil {
		return nil, err
	}
	e := &Executor{svc: svc, clock: clock, client: retry, cfg: cfg}
	if cfg.EnableCache {
		e.cache = llm.NewCacheLRU(cfg.CacheCapacity)
		cached, err := llm.NewCachedClient(retry, e.cache)
		if err != nil {
			return nil, err
		}
		e.client = cached
	}
	return e, nil
}

// Cache returns the response cache (nil unless EnableCache).
func (e *Executor) Cache() *llm.Cache { return e.cache }

// Service exposes the underlying LLM service (usage reports).
func (e *Executor) Service() *llm.Service { return e.svc }

// Clock exposes the virtual clock.
func (e *Executor) Clock() *simclock.Sim { return e.clock }

// NewCtx creates a fresh operator execution context with its own stats.
func (e *Executor) NewCtx() *ops.Ctx {
	return &ops.Ctx{
		Client:      e.client,
		Svc:         e.svc,
		Clock:       e.clock,
		Parallelism: e.cfg.Parallelism,
		Stats:       ops.NewRunStats(),
	}
}

// Result is a completed pipeline run.
type Result struct {
	// Records are the pipeline outputs.
	Records []*record.Record
	// Stats hold per-operator execution statistics.
	Stats *ops.RunStats
	// Plan is the optimizer's chosen plan (nil for direct physical runs).
	Plan *optimizer.Plan
	// Candidates is how many physical plans the optimizer considered.
	Candidates int
	// Policy describes the selection policy used.
	Policy string
	// Elapsed is the simulated wall-clock time of the run.
	Elapsed time.Duration
	// CostUSD is the total LLM cost of the run (including sentinel
	// sampling when enabled).
	CostUSD float64
	// Trace is the run's span tree: per-stage (and, when partitioned,
	// per-partition) record counts, observed selectivity, simulated
	// time, cost, and LLM-call accounting. See internal/trace.
	Trace *trace.Span
	// Reopt summarizes the run's re-optimization check — nil unless the
	// plan was optimized with ReoptAfterBatches > 0. See reopt.go.
	Reopt *ReoptInfo
}

// Run executes an explicit physical operator sequence. When the run
// overlaps stages (see pipelined) it streams batches of
// Config.StreamBatchSize records; otherwise it is RunSequential.
// Canceling ctx aborts the run between records and batches and returns
// the context error.
func (e *Executor) Run(ctx context.Context, phys []ops.Physical) (*Result, error) {
	return e.run(ctx, phys, nil, !e.pipelined(scanParts(phys)))
}

// RunSequential executes the plan as one batch per stage at the
// configured parallelism, ignoring partition fan-out: each operator runs
// once over its full input, so elapsed time is the sum of the operators'
// times. It is what Run does when no stages can overlap, exported so
// benchmarks and tests can compare against the overlapping fold at equal
// parallelism.
func (e *Executor) RunSequential(ctx context.Context, phys []ops.Physical) (*Result, error) {
	return e.run(ctx, phys, nil, true)
}

// pipelined reports whether a run's stages overlap: configured
// parallelism or partition fan-out beyond 1, or a plan whose scan carries
// its own fan-out parts beyond 1 (a cached plan optimized for fan-out must
// not silently run as one batch). The engine then streams batches and
// folds stage clocks with ops.PipelinedWallTime; otherwise it runs one
// batch per stage and sums them. OptimizerOptions sets Pipelined from the
// same predicate, so plans are judged by the fold that runs them.
func (e *Executor) pipelined(parts int) bool {
	return e.cfg.Parallelism > 1 || e.cfg.Partitions > 1 || parts > 1
}

// OptimizerOptions is the one place the engine configuration becomes
// optimizer options, with a pipeline's overrides applied: partitions > 0
// replaces Config.Partitions (pz's WithPartitions) and reoptAfter > 0
// replaces Config.ReoptAfterBatches (WithReopt). Execute optimizes with
// it, and pz's OptimizeOnly and serving fingerprint call it too, so
// explaining a plan, caching it and running it optimize the same problem.
// A fan-out request selects the overlapping model, and a configured one
// keeps it selected even when the pipeline opts back down to one reader.
func (e *Executor) OptimizerOptions(partitions, reoptAfter int) optimizer.Options {
	o := optimizer.Options{
		SampleSize:        e.cfg.SampleSize,
		Partitions:        e.cfg.Partitions,
		ReoptAfterBatches: e.cfg.ReoptAfterBatches,
		Priors:            e.cfg.EstimatePriors,
	}
	if partitions > 0 {
		o.Partitions = partitions
	}
	if reoptAfter > 0 {
		o.ReoptAfterBatches = reoptAfter
	}
	o.Pipelined = e.pipelined(o.Partitions)
	return o
}

// scanParts is the fan-out stamped on a plan's scan, 0 when there is
// none.
func scanParts(phys []ops.Physical) int {
	if len(phys) > 0 {
		if sc, ok := phys[0].(*ops.ScanExec); ok {
			return sc.Parts
		}
	}
	return 0
}

// Optimized is one accounted optimize step: the chosen plan, every
// candidate, and what sentinel calibration spent choosing. A cached plan
// is an Optimized with only Plan set.
type Optimized struct {
	Plan       *optimizer.Plan
	Candidates []*optimizer.Plan
	// Elapsed and CostUSD are the calibration's simulated time and LLM
	// cost; Span is the optimize span that reports them in a trace.
	Elapsed time.Duration
	CostUSD float64
	Span    *trace.Span
}

// Optimize optimizes the logical chain under policy with opts and
// accounts the step. Calibration (sentinel sampling) runs on a run-local
// tally and stats, so concurrent calls cannot pollute each other's
// figures; the engine clock then advances by the calibration time.
// Execute, pz's OptimizeOnly and the serving layer all optimize through
// it, so a query reports the same calibration spend whichever door it
// came in by. Canceling ctx aborts calibration.
func (e *Executor) Optimize(ctx context.Context, chain []ops.Logical, policy optimizer.Policy, opts optimizer.Options) (*Optimized, error) {
	tally := simclock.NewTally(e.clock.Now())
	optCtx := e.NewCtx()
	optCtx.Clock = tally
	optCtx.Context = ctx
	plan, candidates, err := optimizer.New(opts).Optimize(chain, policy, optCtx)
	if err != nil {
		return nil, err
	}
	elapsed := tally.Total()
	e.clock.Sleep(elapsed)
	cost := optCtx.Stats.TotalCost()
	return &Optimized{
		Plan:       plan,
		Candidates: candidates,
		Elapsed:    elapsed,
		CostUSD:    cost,
		Span: &trace.Span{
			Kind:     trace.KindOptimize,
			Name:     "optimize",
			SimMS:    elapsed.Milliseconds(),
			CostUSD:  cost,
			LLMCalls: optCtx.Stats.TotalLLMCalls(),
		},
	}, nil
}

// Execute optimizes the logical chain under policy, with the options
// OptimizerOptions resolves for the pipeline's overrides, and runs the
// chosen plan: the engine behind pz.Execute (paper Figure 6: records,
// execution_stats = Execute(output, policy)). Canceling ctx aborts
// sentinel calibration, plan execution, and in-flight operator batches.
func (e *Executor) Execute(ctx context.Context, chain []ops.Logical, policy optimizer.Policy, partitions, reoptAfter int) (*Result, error) {
	opt, err := e.Optimize(ctx, chain, policy, e.OptimizerOptions(partitions, reoptAfter))
	if err != nil {
		return nil, err
	}
	return e.ExecutePlan(ctx, opt, policy.Describe())
}

// ExecutePlan runs opt's plan. The optimize step's calibration cost and
// time fold into the run totals; both sides are run-local (tally fold +
// per-run stats), so the sum is immune to concurrent runs. An opt with
// no Span holds a cached plan, which spent nothing here. policyDesc
// labels the run's Policy field in reports.
func (e *Executor) ExecutePlan(ctx context.Context, opt *Optimized, policyDesc string) (*Result, error) {
	if opt == nil || opt.Plan == nil || len(opt.Plan.Ops) == 0 {
		return nil, fmt.Errorf("exec: nil or empty plan")
	}
	res, err := e.runPlan(ctx, opt.Plan, policyDesc)
	if err != nil {
		return nil, err
	}
	res.Candidates = len(opt.Candidates)
	res.Elapsed += opt.Elapsed
	res.CostUSD += opt.CostUSD
	res.Trace.SimMS = res.Elapsed.Milliseconds()
	res.Trace.CostUSD = res.CostUSD
	opt.Stamp(res.Trace)
	return res, nil
}

// Stamp records on a query's trace root how its plan was chosen: the
// optimize span leads the root's children, or, for a cached plan, the
// root says plan_cached.
func (o *Optimized) Stamp(root *trace.Span) {
	if o.Span == nil {
		root.SetAttr("plan_cached", "true")
		return
	}
	root.Children = append([]*trace.Span{o.Span}, root.Children...)
	root.SetAttr("candidates", fmt.Sprint(len(o.Candidates)))
}

// Report renders a Figure 5-style execution summary: output records,
// per-operator table, chosen plan, total runtime and cost.
func Report(res *Result, maxRecords int) string {
	var b strings.Builder
	b.WriteString("=== Execution Report ===\n")
	if res.Plan != nil {
		fmt.Fprintf(&b, "policy:  %s\n", res.Policy)
		fmt.Fprintf(&b, "plan:    %s\n", res.Plan)
		fmt.Fprintf(&b, "plans considered: %d\n", res.Candidates)
		fmt.Fprintf(&b, "estimates: cost=$%.4f time=%.1fs quality=%.3f\n",
			res.Plan.Cost(), res.Plan.Time(), res.Plan.Quality())
	}
	fmt.Fprintf(&b, "output records: %d\n", len(res.Records))
	if maxRecords > 0 {
		n := len(res.Records)
		if n > maxRecords {
			n = maxRecords
		}
		for _, r := range res.Records[:n] {
			fmt.Fprintf(&b, "  %s\n", r)
		}
		if len(res.Records) > n {
			fmt.Fprintf(&b, "  … and %d more\n", len(res.Records)-n)
		}
	}
	b.WriteString("\nper-operator statistics:\n")
	fmt.Fprintf(&b, "  %-38s %6s %6s %7s %10s %10s %12s\n",
		"operator", "in", "out", "calls", "tokens", "cost_usd", "time")
	for _, op := range res.Stats.Ops() {
		fmt.Fprintf(&b, "  %-38s %6d %6d %7d %10d %10.4f %12s\n",
			op.OpID, op.InRecords, op.OutRecords, op.LLMCalls,
			op.InputTokens+op.OutputTokens, op.CostUSD, op.Time.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "\ntotal runtime: %s (simulated)\n", res.Elapsed.Round(time.Second))
	fmt.Fprintf(&b, "total cost:    $%.4f\n", res.CostUSD)
	return b.String()
}
