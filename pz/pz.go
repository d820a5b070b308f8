// Package pz is the public Palimpzest API: declarative, optimizer-backed AI
// analytics over unstructured data (paper §2.1). Users register datasets,
// compose logical pipelines with Filter/Convert and conventional relational
// operators, pick an optimization policy, and Execute — the library
// enumerates physical plans, selects one under the policy, runs it, and
// reports execution statistics.
//
// Execution is handled by internal/exec's one engine: operator stages run
// concurrently over bounded channels of record batches, with progress
// reported through Config.OnProgress. At Config.Parallelism <= 1 with no
// partition fan-out the plan runs as one batch per stage, so the modeled
// runtime is the sum of the operator times; otherwise the scan streams
// batches of Config.StreamBatchSize records and stages overlap. Outputs
// and per-operator statistics are the same either way; only the modeled
// runtime changes. See docs/architecture.md.
//
// The package mirrors the pipeline shape of the paper's Figure 6:
//
//	ctx, _ := pz.NewContext(pz.Config{})
//	ctx.RegisterDir("sigmod-demo", "./papers")
//	ds, _ := ctx.Dataset("sigmod-demo")
//	ds = ds.Filter("The papers are about colorectal cancer")
//	clinical, _ := pz.DeriveSchema("ClinicalData",
//	    "A schema for extracting clinical data datasets from papers.",
//	    []string{"name", "description", "url"},
//	    []string{"The name of the clinical data dataset",
//	        "A short description of the content of the dataset",
//	        "The public URL where the dataset can be accessed"})
//	ds = ds.Convert(clinical, clinical.Doc(), pz.OneToMany)
//	res, _ := ctx.Execute(ds, pz.MaxQuality())
package pz

import (
	"context"
	"fmt"
	"time"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/trace"
)

// Re-exported core types. The internal packages carry the implementations;
// these aliases are the supported public names.
type (
	// Schema describes the attributes of records (names, types, and the
	// natural-language descriptions LLM extraction uses).
	Schema = schema.Schema
	// Field is one schema attribute.
	Field = schema.Field
	// FieldType types a field.
	FieldType = schema.FieldType
	// Record is one data item flowing through a pipeline.
	Record = record.Record
	// Source is a registered dataset.
	Source = dataset.Source
	// Policy selects among physical plans.
	Policy = optimizer.Policy
	// Plan is an optimized physical plan.
	Plan = optimizer.Plan
	// Cardinality declares Convert fan-out.
	Cardinality = ops.Cardinality
	// AggFunc enumerates aggregate functions.
	AggFunc = ops.AggFunc
	// Span is one node of a query trace: per-stage (and per-partition)
	// record counts, observed selectivity, simulated time, and cost.
	Span = trace.Span
)

// Field type constants.
const (
	String     = schema.String
	Int        = schema.Int
	Float      = schema.Float
	Bool       = schema.Bool
	StringList = schema.StringList
	Bytes      = schema.Bytes
)

// Cardinality constants (paper Figure 6: pz.Cardinality.ONE_TO_MANY).
const (
	OneToOne  = ops.OneToOne
	OneToMany = ops.OneToMany
)

// Aggregate function constants.
const (
	Count = ops.AggCount
	Sum   = ops.AggSum
	Avg   = ops.AggAvg
	Min   = ops.AggMin
	Max   = ops.AggMax
)

// Built-in schemas.
var (
	// PDFFile is the native PDF schema auto-selected for .pdf datasets.
	PDFFile = schema.PDFFile
	// TextFile is the plain-text file schema.
	TextFile = schema.TextFile
	// CSVRow is the CSV row schema.
	CSVRow = schema.CSVRow
	// WebPage is the HTML page schema.
	WebPage = schema.WebPage
)

// NewSchema constructs a schema from explicit fields.
func NewSchema(name, doc string, fields ...Field) (*Schema, error) {
	return schema.New(name, doc, fields...)
}

// DeriveSchema builds a schema from parallel name/description slices — the
// dynamic schema generation of the paper's Figure 2.
func DeriveSchema(name, doc string, fieldNames, fieldDescs []string) (*Schema, error) {
	return schema.Derive(name, doc, fieldNames, fieldDescs)
}

// Policies.

// MaxQuality maximizes output quality.
func MaxQuality() Policy { return optimizer.MaxQuality{} }

// MinCost minimizes dollar cost.
func MinCost() Policy { return optimizer.MinCost{} }

// MinTime minimizes runtime.
func MinTime() Policy { return optimizer.MinTime{} }

// MaxQualityAtCost maximizes quality within a dollar budget.
func MaxQualityAtCost(budgetUSD float64) Policy {
	return optimizer.MaxQualityAtCost{BudgetUSD: budgetUSD}
}

// MaxQualityAtTime maximizes quality within a runtime cap (seconds).
func MaxQualityAtTime(capSec float64) Policy {
	return optimizer.MaxQualityAtTime{CapSec: capSec}
}

// MinCostAtQuality minimizes cost subject to a quality floor.
func MinCostAtQuality(floor float64) Policy {
	return optimizer.MinCostAtQuality{Floor: floor}
}

// MinTimeAtQuality minimizes runtime subject to a quality floor.
func MinTimeAtQuality(floor float64) Policy {
	return optimizer.MinTimeAtQuality{Floor: floor}
}

// ParsePolicy resolves a policy by name ("max quality", "min cost", ...)
// with an optional parameter for constrained policies.
func ParsePolicy(name string, param float64) (Policy, error) {
	return optimizer.ParsePolicy(name, param)
}

// Frontier returns the Pareto-optimal subset of candidate plans (non-
// dominated on cost, time, and quality).
func Frontier(plans []*Plan) []*Plan { return optimizer.Frontier(plans) }

// Config configures a Context: the engine's run knobs (parallelism,
// partition fan-out, sentinel sampling, re-optimization window, seeded
// priors, LLM cache, batch size, progress callback). It is the engine's
// own exec.Config, declared, documented and checked there once: NewContext
// rejects negative values. Dataset.WithPartitions and WithReopt override
// Partitions and ReoptAfterBatches for one pipeline.
type Config = exec.Config

// Progress is one execution progress event (see Config.OnProgress).
type Progress = exec.Progress

// OpEstimate is one seeded cost-model estimate (see Config.EstimatePriors).
type OpEstimate = optimizer.OpCalibration

// ReoptInfo summarizes a run's re-optimization check (see Result.Reopt).
type ReoptInfo = exec.ReoptInfo

// Context owns a dataset registry and an execution engine. LLM usage
// accumulates across every run on it.
type Context struct {
	registry *dataset.Registry
	executor *exec.Executor
}

// NewContext builds a Context.
func NewContext(cfg Config) (*Context, error) {
	e, err := exec.NewExecutor(cfg)
	if err != nil {
		return nil, err
	}
	return &Context{registry: dataset.NewRegistry(), executor: e}, nil
}

// Register adds a dataset source to the context registry.
func (c *Context) Register(src Source) error { return c.registry.Register(src) }

// RegisterDir registers a local folder as a dataset; every file becomes a
// record and the schema is chosen from the dominant file extension.
func (c *Context) RegisterDir(name, dir string) (Source, error) {
	src, err := dataset.NewDirSource(name, dir)
	if err != nil {
		return nil, err
	}
	if err := c.registry.Register(src); err != nil {
		return nil, err
	}
	return src, nil
}

// RegisterNDJSON registers an on-disk NDJSON corpus file (one JSON
// document + embedded ground truth per line, manifest alongside; see
// docs/howto-corpus.md) as a dataset without loading it: the pipelined
// engine streams records from the file batch by batch, and the optimizer
// costs pipelines from the manifest statistics. Generate such files with
// cmd/pzcorpus or corpus.SaveNDJSON.
func (c *Context) RegisterNDJSON(name, path string) (Source, error) {
	src, err := dataset.NewNDJSONSource(name, path)
	if err != nil {
		return nil, err
	}
	if err := c.registry.Register(src); err != nil {
		return nil, err
	}
	return src, nil
}

// RegisterRecords registers an in-memory record collection.
func (c *Context) RegisterRecords(name string, s *Schema, recs []*Record) (Source, error) {
	src, err := dataset.NewMemSource(name, s, recs)
	if err != nil {
		return nil, err
	}
	if err := c.registry.Register(src); err != nil {
		return nil, err
	}
	return src, nil
}

// RegisterDocs registers synthetic corpus documents (keeps their hidden
// ground truth for quality measurement).
func (c *Context) RegisterDocs(name string, s *Schema, docs []*corpus.Doc) (Source, error) {
	src, err := dataset.NewDocsSource(name, s, docs)
	if err != nil {
		return nil, err
	}
	if err := c.registry.Register(src); err != nil {
		return nil, err
	}
	return src, nil
}

// Datasets lists registered dataset names.
func (c *Context) Datasets() []string { return c.registry.Names() }

// Dataset starts a pipeline over a registered dataset (paper Figure 6:
// pz.Dataset(source=..., schema=...)).
func (c *Context) Dataset(name string) (*Dataset, error) {
	src, err := c.registry.Lookup(name)
	if err != nil {
		return nil, err
	}
	return &Dataset{chain: []ops.Logical{&ops.Scan{Source: src}}}, nil
}

// Executor exposes the underlying engine (usage reports, virtual clock).
func (c *Context) Executor() *exec.Executor { return c.executor }

// UsageReport renders cumulative per-model LLM usage.
func (c *Context) UsageReport() string { return c.executor.Service().UsageReport() }

// TotalCost returns cumulative LLM cost across runs.
func (c *Context) TotalCost() float64 { return c.executor.Service().TotalCost() }

// Dataset is an immutable logical pipeline builder: every operator returns
// a new Dataset, and errors are deferred to Execute (so chains read
// cleanly, as in the paper's examples).
type Dataset struct {
	chain []ops.Logical
	// partitions is the pipeline's requested scan fan-out (0 = the
	// Config.Partitions default; see WithPartitions).
	partitions int
	// reoptAfter is the pipeline's re-optimization window (0 = the
	// Config default; see WithReopt).
	reoptAfter int
	err        error
}

func (d *Dataset) clone() *Dataset {
	cp := *d
	return &cp
}

func (d *Dataset) extend(op ops.Logical) *Dataset {
	if d.err != nil {
		return d
	}
	chain := make([]ops.Logical, len(d.chain), len(d.chain)+1)
	copy(chain, d.chain)
	out := d.clone()
	out.chain = append(chain, op)
	return out
}

func (d *Dataset) fail(err error) *Dataset {
	if d.err != nil {
		return d
	}
	out := d.clone()
	out.err = err
	return out
}

// WithPartitions requests a partition fan-out for this pipeline's scan,
// overriding Config.Partitions: n > 1 fans a partitionable source (an
// indexed NDJSON corpus) out across n parallel range readers, n == 1
// forces the single sequential reader, n == 0 restores the Config
// default. Non-partitionable sources ignore the request and scan
// sequentially.
func (d *Dataset) WithPartitions(n int) *Dataset {
	if n < 0 {
		return d.fail(fmt.Errorf("pz: negative partition fan-out %d", n))
	}
	if d.err != nil {
		return d
	}
	out := d.clone()
	out.partitions = n
	return out
}

// WithReopt requests adaptive mid-flight re-optimization for this
// pipeline, overriding Config.ReoptAfterBatches: the engine observes each
// re-orderable filter stage for after batches and hot-swaps the rest of
// the run onto a cheaper filter ordering when the observed statistics
// diverge from the plan's estimates by more than
// optimizer.ReoptDivergence. after == 0 restores the Config default.
func (d *Dataset) WithReopt(after int) *Dataset {
	if after < 0 {
		return d.fail(fmt.Errorf("pz: negative re-optimization batch window %d", after))
	}
	if d.err != nil {
		return d
	}
	out := d.clone()
	out.reoptAfter = after
	return out
}

// Filter keeps records satisfying a natural-language predicate.
func (d *Dataset) Filter(predicate string) *Dataset {
	if predicate == "" {
		return d.fail(fmt.Errorf("pz: empty filter predicate"))
	}
	return d.extend(&ops.Filter{Predicate: predicate})
}

// FilterUDF keeps records satisfying a Go predicate (zero LLM cost).
func (d *Dataset) FilterUDF(name string, udf func(*Record) (bool, error)) *Dataset {
	if udf == nil {
		return d.fail(fmt.Errorf("pz: nil UDF"))
	}
	return d.extend(&ops.Filter{UDF: udf, UDFName: name})
}

// Convert transforms records into the target schema, computing fields that
// do not exist on the input.
func (d *Dataset) Convert(target *Schema, desc string, card Cardinality) *Dataset {
	if target == nil {
		return d.fail(fmt.Errorf("pz: convert without target schema"))
	}
	return d.extend(&ops.Convert{Target: target, Desc: desc, Card: card})
}

// Project restricts records to the named fields.
func (d *Dataset) Project(fields ...string) *Dataset {
	return d.extend(&ops.Project{Fields: fields})
}

// Limit caps the record count.
func (d *Dataset) Limit(n int) *Dataset {
	return d.extend(&ops.Limit{N: n})
}

// Distinct removes duplicates by the named fields (all fields when empty).
func (d *Dataset) Distinct(fields ...string) *Dataset {
	return d.extend(&ops.Distinct{Fields: fields})
}

// Aggregate reduces the dataset to one record.
func (d *Dataset) Aggregate(f AggFunc, field string) *Dataset {
	return d.extend(&ops.Aggregate{Func: f, Field: field})
}

// GroupBy groups by key fields and aggregates per group.
func (d *Dataset) GroupBy(keys []string, f AggFunc, field string) *Dataset {
	return d.extend(&ops.GroupBy{Keys: keys, Func: f, Field: field})
}

// Sort orders records by a field.
func (d *Dataset) Sort(field string, descending bool) *Dataset {
	return d.extend(&ops.Sort{Field: field, Descending: descending})
}

// Retrieve keeps the top-k records most semantically similar to query.
func (d *Dataset) Retrieve(query string, k int) *Dataset {
	if query == "" {
		return d.fail(fmt.Errorf("pz: empty retrieve query"))
	}
	return d.extend(&ops.Retrieve{Query: query, K: k})
}

// Chain exposes the logical operator chain (for the chat layer and code
// generation).
func (d *Dataset) Chain() []ops.Logical {
	out := make([]ops.Logical, len(d.chain))
	copy(out, d.chain)
	return out
}

// Err returns the first builder error, if any.
func (d *Dataset) Err() error { return d.err }

// OutputSchema type-checks the pipeline and returns its output schema.
func (d *Dataset) OutputSchema() (*Schema, error) {
	if d.err != nil {
		return nil, d.err
	}
	return ops.ValidatePlan(d.chain)
}

// Describe renders the logical plan, one operator per line.
func (d *Dataset) Describe() string {
	out := ""
	for i, op := range d.chain {
		if i > 0 {
			out += "\n"
		}
		out += op.Describe()
	}
	return out
}

// Result is a completed pipeline execution.
type Result struct {
	// Records are the pipeline outputs.
	Records []*Record
	// Plan is the optimizer's chosen physical plan.
	Plan *Plan
	// Candidates is how many plans were considered.
	Candidates int
	// Elapsed is the simulated runtime.
	Elapsed time.Duration
	// CostUSD is the total LLM cost of the run.
	CostUSD float64
	// Stats exposes per-operator statistics.
	Stats *ops.RunStats
	// Trace is the query's span tree (stage, partition, and — for
	// clustered execution — worker spans). See internal/trace.
	Trace *Span
	// Reopt summarizes the run's re-optimization check (nil unless the
	// pipeline ran with ReoptAfterBatches > 0).
	Reopt *ReoptInfo

	inner *exec.Result
}

// Report renders the Figure 5-style execution panel, showing up to
// maxRecords output records.
func (r *Result) Report(maxRecords int) string { return exec.Report(r.inner, maxRecords) }

// Execute optimizes and runs the pipeline under the policy (paper Figure 6:
// records, execution_stats = Execute(output, policy)).
func (c *Context) Execute(d *Dataset, policy Policy) (*Result, error) {
	return c.ExecuteContext(context.Background(), d, policy)
}

// ExecuteContext is Execute with cancellation: canceling ctx (a timeout, a
// disconnected serving client) aborts optimization and execution between
// records and returns the context error. A Context is safe for concurrent
// ExecuteContext calls — each run accounts its own cost and elapsed time,
// while UsageReport/TotalCost keep accumulating across all of them.
func (c *Context) ExecuteContext(ctx context.Context, d *Dataset, policy Policy) (*Result, error) {
	if d == nil {
		return nil, fmt.Errorf("pz: nil dataset")
	}
	if d.err != nil {
		return nil, d.err
	}
	res, err := c.executor.Execute(ctx, d.chain, policy, d.partitions, d.reoptAfter)
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

// ExecutePlanContext runs an already-optimized physical plan, skipping
// enumeration and selection, as a cached plan runs. policyDesc labels
// the plan's policy in reports.
func (c *Context) ExecutePlanContext(ctx context.Context, plan *Plan, policyDesc string) (*Result, error) {
	res, err := c.executor.ExecutePlan(ctx, &exec.Optimized{Plan: plan}, policyDesc)
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

// OptimizerOptions is the optimizer configuration derived from a Context.
type OptimizerOptions = optimizer.Options

// OptimizerOptions returns the options ExecuteContext hands the optimizer
// for a pipeline without overrides, with the engine choice resolved
// (Pipelined reflects Parallelism and the partition fan-out).
func (c *Context) OptimizerOptions() OptimizerOptions { return c.executor.OptimizerOptions(0, 0) }

// OptimizerOptionsFor is OptimizerOptions with the dataset's per-pipeline
// overrides applied (WithPartitions, WithReopt) — the exact options
// ExecuteContext will resolve for d, which is what the serving layer must
// fingerprint so queries with different fan-outs never share a cached
// plan.
func (c *Context) OptimizerOptionsFor(d *Dataset) OptimizerOptions {
	return c.executor.OptimizerOptions(d.partitions, d.reoptAfter)
}

func wrapResult(res *exec.Result) *Result {
	return &Result{
		Records:    res.Records,
		Plan:       res.Plan,
		Candidates: res.Candidates,
		Elapsed:    res.Elapsed,
		CostUSD:    res.CostUSD,
		Stats:      res.Stats,
		Trace:      res.Trace,
		Reopt:      res.Reopt,
		inner:      res,
	}
}

// OptimizeOnly runs the optimizer without executing; it returns the chosen
// plan and all candidates (used by experiments and the chat "explain"
// command).
func (c *Context) OptimizeOnly(d *Dataset, policy Policy) (*Plan, []*Plan, error) {
	if d == nil {
		return nil, nil, fmt.Errorf("pz: nil dataset")
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	opt, err := c.executor.Optimize(context.Background(), d.chain, policy, c.OptimizerOptionsFor(d))
	if err != nil {
		return nil, nil, err
	}
	return opt.Plan, opt.Candidates, nil
}
