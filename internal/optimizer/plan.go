// Package optimizer implements Palimpzest's logical→physical optimization
// (paper §2.1): it enumerates "a search space of all possible physical
// plans" for a logical plan, estimates each plan's cost, runtime, and
// quality, and "automatically ranks physical plans and selects the most
// optimal one that meets user-defined preferences" — either a pure
// objective (quality, cost, runtime) or a constrained combination ("maximize
// the output quality while being under a certain latency").
//
// Estimation can be calibrated by sentinel sampling: the champion plan runs
// over a small record sample to measure per-operator selectivity and
// fan-out before full enumeration (the sample's LLM calls are charged to
// usage, as in the real system).
//
// Runtime estimates come in two flavors matching internal/exec's two run
// shapes: the default sequential sum of per-operator times (one batch per
// stage), and — with Options.Pipelined — the streaming model, where
// consecutive streamable stages overlap and cost only their slowest
// member (see docs/architecture.md for the pipeline dataflow).
package optimizer

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/ops"
	"repro/internal/record"
)

// sampleRecords takes the first n records of a source, preferring
// incremental iteration (dataset.RecordIterator) so sampling a file-backed
// corpus never loads it whole. n <= 0 yields an empty sample regardless
// of source type.
func sampleRecords(src dataset.Source, n int) ([]*record.Record, error) {
	if n <= 0 {
		return nil, nil
	}
	if it, ok := src.(dataset.RecordIterator); ok {
		var sample []*record.Record
		err := it.IterateRecords(func(r *record.Record) error {
			sample = append(sample, r)
			if len(sample) >= n {
				return dataset.ErrStop
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return sample, nil
	}
	all, err := src.Records()
	if err != nil {
		return nil, err
	}
	if len(all) > n {
		all = all[:n]
	}
	return all, nil
}

// Plan is one fully-physical pipeline with its cost-model trajectory.
type Plan struct {
	// Logical is the source logical chain.
	Logical []ops.Logical
	// Ops are the chosen physical implementations, parallel to Logical.
	Ops []ops.Physical
	// PerOp[i] is the cost-model state after executing Ops[i].
	PerOp []ops.Estimate
	// Final is PerOp's last entry.
	Final ops.Estimate
	// TimePipelined is the estimated runtime under the pipelined streaming
	// executor: consecutive streamable stages overlap, so a segment costs
	// its slowest stage; blocking stages are barriers contributing their
	// full time (mirroring exec's wall-clock model). Computed for every
	// plan; Time reports it when the optimizer ran with Options.Pipelined.
	TimePipelined float64
	// ConstraintViolated reports that the selecting policy could not meet
	// its constraint and fell back to the nearest plan.
	ConstraintViolated bool
	// Opts records the options the plan was optimized under. The executor
	// reads the re-optimization knobs from here, so a plan replayed from
	// the serving plan cache behaves exactly like its first execution.
	Opts Options

	// pipelined selects which runtime estimate Time reports.
	pipelined bool
}

// String renders the plan as "op -> op -> op".
func (p *Plan) String() string {
	ids := make([]string, len(p.Ops))
	for i, op := range p.Ops {
		ids[i] = op.ID()
	}
	return strings.Join(ids, " -> ")
}

// Cost returns the plan's estimated total dollar cost.
func (p *Plan) Cost() float64 { return p.Final.CostUSD }

// Time returns the plan's estimated runtime in seconds: the sequential
// sum of operator times by default, or the pipelined estimate
// (TimePipelined) when the optimizer targeted overlapping stages.
func (p *Plan) Time() float64 {
	if p.pipelined {
		return p.TimePipelined
	}
	return p.Final.TimeSec
}

// Quality returns the plan's estimated output quality in (0,1].
func (p *Plan) Quality() float64 { return p.Final.Quality }

// Options configures the optimizer.
type Options struct {
	// Pruning enables Pareto pruning of dominated plan prefixes during
	// enumeration. Without it the full cartesian plan space is ranked.
	Pruning bool
	// SampleSize, when > 0, runs sentinel calibration over that many
	// records before enumeration (requires a Ctx in Optimize).
	SampleSize int
	// Pipelined makes plan runtime estimates (Plan.Time, and therefore
	// time-sensitive policies) use the pipelined streaming model — stage
	// segments cost their maximum, not their sum. The executor sets it
	// when Parallelism > 1 selects the streaming engine.
	Pipelined bool
	// Partitions is the partition fan-out to optimize for: when > 1 the
	// enumerator stamps it onto every scan (ops.ScanExec.Parts), and
	// pipelined time estimates divide the plan's streamable prefix by the
	// fan-out the scan's source can actually provide — mirroring the
	// engine, which runs one source+map pipeline per partition. The
	// executor defaults it from its own Partitions config.
	Partitions int
	// ReoptAfterBatches, when > 0, arms mid-flight re-optimization on the
	// engine's overlapping runs: after this many batches have crossed each
	// re-orderable filter stage, observed selectivity and cost are
	// compared against the plan's estimates, and past ReoptDivergence the
	// remaining work is re-planned and hot-swapped at a stage boundary
	// (see internal/exec). Runs that cannot swap (one batch per stage,
	// partitioned) apply the same check after the run to correct the
	// cached plan's estimates.
	ReoptAfterBatches int
	// Priors seeds per-position selectivity/fan-out estimates without
	// running sentinel calibration — the way corrected estimates from an
	// earlier run (or a benchmark's deliberate mis-seeding) re-enter the
	// optimizer. Sentinel sampling (SampleSize > 0) takes precedence.
	Priors Calibration
}

// Optimizer enumerates and ranks physical plans.
type Optimizer struct {
	opts Options
}

// New returns an optimizer with the given options.
func New(opts Options) *Optimizer { return &Optimizer{opts: opts} }

// InitialEstimate builds the cost-model seed for a logical chain: the scan
// source's cardinality and average record size. Sources that know their
// own statistics (dataset.Stater) are costed from them: a file-backed
// corpus from its manifest, without reading a record, and a folder from
// the snapshot its scan then reads.
func InitialEstimate(chain []ops.Logical) (ops.Estimate, error) {
	if len(chain) == 0 {
		return ops.Estimate{}, fmt.Errorf("optimizer: empty plan")
	}
	scan, ok := chain[0].(*ops.Scan)
	if !ok {
		return ops.Estimate{}, fmt.Errorf("optimizer: plan must start with scan")
	}
	if st, ok := scan.Source.(dataset.Stater); ok {
		if s, trusted := st.Stats(); trusted {
			return ops.Estimate{
				Cardinality: float64(s.NumRecords),
				AvgTokens:   s.AvgTokens,
				Quality:     1,
			}, nil
		}
	}
	recs, err := scan.Source.Records()
	if err != nil {
		return ops.Estimate{}, fmt.Errorf("optimizer: %w", err)
	}
	est := ops.Estimate{Cardinality: float64(len(recs)), Quality: 1}
	if len(recs) > 0 {
		// Average token size over (up to) the first 16 records.
		n := len(recs)
		if n > 16 {
			n = 16
		}
		total := 0
		for _, r := range recs[:n] {
			total += llm.Tokens(r.TextLen())
		}
		est.AvgTokens = float64(total) / float64(n)
	}
	return est, nil
}

// Optimize validates the chain, optionally calibrates, enumerates the
// physical plan space, and selects with policy. It returns the chosen plan
// and every candidate considered (for reporting). ctx is only needed when
// SampleSize > 0.
func (o *Optimizer) Optimize(chain []ops.Logical, policy Policy, ctx *ops.Ctx) (*Plan, []*Plan, error) {
	if _, err := ops.ValidatePlan(chain); err != nil {
		return nil, nil, err
	}
	if policy == nil {
		return nil, nil, fmt.Errorf("optimizer: nil policy")
	}
	initial, err := InitialEstimate(chain)
	if err != nil {
		return nil, nil, err
	}
	calib := o.opts.Priors
	if o.opts.SampleSize > 0 {
		if ctx == nil {
			return nil, nil, fmt.Errorf("optimizer: sampling requires an execution context")
		}
		// Measured statistics beat seeded priors.
		calib, err = Calibrate(chain, o.opts.SampleSize, ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("optimizer: calibration: %w", err)
		}
	}
	// The cascade pass needs an execution context for its sentinel verify
	// calls; without one (estimate-only optimization) the strategy is
	// simply not enumerated.
	var casc *CascadeCalibration
	if ctx != nil {
		casc, err = CalibrateCascade(chain, ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("optimizer: cascade calibration: %w", err)
		}
	}
	plans := o.enumerate(chain, initial, calib, casc)
	if len(plans) == 0 {
		return nil, nil, fmt.Errorf("optimizer: no physical plans for %d-op chain", len(chain))
	}
	chosen, err := policy.Choose(plans)
	if err != nil {
		return nil, plans, err
	}
	chosen.Opts = o.opts
	return chosen, plans, nil
}

// enumerate expands the physical plan space: every calibrated filter
// ordering (filterOrderings) times every physical choice per slot, with
// (optional) Pareto pruning after each step and globally across orderings.
func (o *Optimizer) enumerate(chain []ops.Logical, initial ops.Estimate, calib Calibration, casc *CascadeCalibration) []*Plan {
	var all []*Plan
	orderings := filterOrderings(chain, calib)
	for _, perm := range orderings {
		all = append(all, o.enumerateOrdered(chain, perm, initial, calib, casc)...)
	}
	if len(orderings) > 1 && o.opts.Pruning {
		// Orderings were pruned independently; prune once more across the
		// merged set so a dominated ordering's survivors drop out.
		all = paretoPrune(all)
	}
	return all
}

// enumerateOrdered expands physical choices left to right along one slot
// ordering: slot i executes logical position perm[i]. Calibration and the
// cascade join follow the logical position; pruning applies per step.
func (o *Optimizer) enumerateOrdered(chain []ops.Logical, perm []int, initial ops.Estimate, calib Calibration, casc *CascadeCalibration) []*Plan {
	logical := make([]ops.Logical, len(chain))
	for slot, lp := range perm {
		logical[slot] = chain[lp]
	}
	prefixes := []*Plan{{Logical: logical}}
	for _, lp := range perm {
		lop := chain[lp]
		options := lop.Physical()
		if casc != nil && lp == casc.Pos {
			// Calibrated cascade strategies join the position's generic
			// options; they carry their own measurements, so the generic
			// calibration overrides below don't apply to them.
			options = append(append([]ops.Physical{}, options...), casc.Candidates...)
		}
		for _, phys := range options {
			calib.apply(lp, phys)
			// Stamp the requested fan-out onto scans so the plan carries
			// it to the engine (and through the serving plan cache).
			if sc, ok := phys.(*ops.ScanExec); ok && o.opts.Partitions > 0 {
				sc.Parts = o.opts.Partitions
			}
		}
		var next []*Plan
		for _, prefix := range prefixes {
			for _, phys := range options {
				prev := initial
				if len(prefix.PerOp) > 0 {
					prev = prefix.PerOp[len(prefix.PerOp)-1]
				}
				est := phys.Estimate(prev)
				np := &Plan{
					Logical:   logical,
					Ops:       append(append([]ops.Physical{}, prefix.Ops...), phys),
					PerOp:     append(append([]ops.Estimate{}, prefix.PerOp...), est),
					Final:     est,
					pipelined: o.opts.Pipelined,
				}
				// Keep the prefix's pipelined estimate current so Pareto
				// pruning compares plans by the same time metric the
				// selecting policy will use (Plan.Time).
				np.TimePipelined = pipelinedTimeSec(np)
				next = append(next, np)
			}
		}
		if o.opts.Pruning {
			next = paretoPrune(next)
		}
		prefixes = next
	}
	// Final, TimePipelined, and the pipelined flag were maintained on
	// every prefix during expansion (pruning needs them), so complete
	// plans are already fully populated.
	return prefixes
}

// pipelinedTimeSec models a plan's runtime on the streaming engine: the
// per-operator time deltas folded by the engine's shared wall-clock model
// (ops.PipelinedWallTime). A partitioned scan fans the plan's stream
// prefix (ops.StreamPrefix) out into per-partition pipelines, so those
// stages' deltas divide by the fan-out the scan's source can provide —
// the same max-across-partitions model the engine applies to its
// measured clocks.
func pipelinedTimeSec(p *Plan) float64 {
	deltas := make([]float64, len(p.Ops))
	var prev float64
	for i := range p.Ops {
		deltas[i] = p.PerOp[i].TimeSec - prev
		prev = p.PerOp[i].TimeSec
	}
	if sc, ok := p.Ops[0].(*ops.ScanExec); ok {
		f := float64(sc.Partitions())
		for i := range p.Ops[:ops.StreamPrefix(p.Ops)] {
			deltas[i] /= f
		}
	}
	return ops.PipelinedWallTime(p.Ops, deltas)
}

// PlanSpaceSize returns the size of the unpruned physical plan space.
func PlanSpaceSize(chain []ops.Logical) int {
	size := 1
	for _, lop := range chain {
		size *= len(lop.Physical())
	}
	return size
}

// dominates reports whether a is at least as good as b on every dimension
// and strictly better on one. Time uses Plan.Time, so pruning and policy
// selection always judge plans by the same runtime model (sequential sum
// or pipelined fold).
func dominates(a, b *Plan) bool {
	ea, eb := a.PerOp[len(a.PerOp)-1], b.PerOp[len(b.PerOp)-1]
	if ea.CostUSD > eb.CostUSD || a.Time() > b.Time() || ea.Quality < eb.Quality {
		return false
	}
	return ea.CostUSD < eb.CostUSD || a.Time() < b.Time() || ea.Quality > eb.Quality
}

// paretoPrune keeps only non-dominated plans, preserving input order.
func paretoPrune(plans []*Plan) []*Plan {
	var out []*Plan
	for i, p := range plans {
		dominated := false
		for j, q := range plans {
			if i == j {
				continue
			}
			if dominates(q, p) {
				dominated = true
				break
			}
			// Exact ties: keep the earlier plan only.
			if j < i && !dominates(p, q) && equalEst(p, q) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

func equalEst(a, b *Plan) bool {
	ea, eb := a.PerOp[len(a.PerOp)-1], b.PerOp[len(b.PerOp)-1]
	return ea.CostUSD == eb.CostUSD && a.Time() == b.Time() && ea.Quality == eb.Quality
}

// Calibration holds per-logical-position measurements from sentinel
// sampling, or seeded estimates (Options.Priors; a benchmark track's
// "priors").
type Calibration map[int]OpCalibration

// OpCalibration is one operator's measured or seeded behaviour.
type OpCalibration struct {
	// Selectivity is out/in for filters.
	Selectivity float64 `json:"selectivity,omitempty"`
	// Fanout is out/in for converts.
	Fanout float64 `json:"fanout,omitempty"`
}

// apply pushes calibrated parameters into a physical operator instance.
func (c Calibration) apply(pos int, phys ops.Physical) {
	if c == nil {
		return
	}
	oc, ok := c[pos]
	if !ok {
		return
	}
	switch p := phys.(type) {
	case *ops.LLMFilterExec:
		p.SelEstimate = oc.Selectivity
	case *ops.EmbedFilterExec:
		p.SelEstimate = oc.Selectivity
	case *ops.LLMConvertExec:
		p.FanoutEstimate = oc.Fanout
	}
}

// Calibrate runs the champion physical plan over the first sampleSize
// records and measures per-operator selectivity/fan-out. The sample's LLM
// usage is charged to the context's service, mirroring the real system's
// sentinel execution cost.
func Calibrate(chain []ops.Logical, sampleSize int, ctx *ops.Ctx) (Calibration, error) {
	scan, ok := chain[0].(*ops.Scan)
	if !ok {
		return nil, fmt.Errorf("optimizer: plan must start with scan")
	}
	sample, err := sampleRecords(scan.Source, sampleSize)
	if err != nil {
		return nil, err
	}
	calib := Calibration{}
	recs := sample
	for pos := 1; pos < len(chain); pos++ {
		phys := champion(chain[pos])
		if phys == nil {
			continue
		}
		ctx.SetCurrentOp(pos)
		out, err := ops.Run(ctx, phys, recs)
		if err != nil {
			return nil, fmt.Errorf("optimizer: sampling operator %d (%s): %w", pos, phys.ID(), err)
		}
		if len(recs) > 0 {
			ratio := float64(len(out)) / float64(len(recs))
			switch chain[pos].(type) {
			case *ops.Filter:
				// Avoid a zero selectivity from a tiny sample wiping out
				// downstream estimates entirely.
				if ratio == 0 {
					ratio = 0.5 / float64(len(recs)+1)
				}
				calib[pos] = OpCalibration{Selectivity: ratio}
			case *ops.Convert:
				calib[pos] = OpCalibration{Fanout: ratio}
			}
		}
		recs = out
	}
	return calib, nil
}

// champion picks the highest-quality physical option of a logical operator
// (the sentinel plan Palimpzest executes to ground its estimates).
func champion(lop ops.Logical) ops.Physical {
	options := lop.Physical()
	if len(options) == 0 {
		return nil
	}
	neutral := ops.Estimate{Cardinality: 1, AvgTokens: 100, Quality: 1}
	best := options[0]
	bestQ := best.Estimate(neutral).Quality
	for _, opt := range options[1:] {
		if q := opt.Estimate(neutral).Quality; q > bestQ {
			best, bestQ = opt, q
		}
	}
	return best
}

// ChampionPlan returns the all-champion physical plan (used by experiments
// to execute the quality-reference pipeline directly).
func ChampionPlan(chain []ops.Logical) ([]ops.Physical, error) {
	if _, err := ops.ValidatePlan(chain); err != nil {
		return nil, err
	}
	out := make([]ops.Physical, len(chain))
	for i, lop := range chain {
		p := champion(lop)
		if p == nil {
			return nil, fmt.Errorf("optimizer: no physical options for %s", lop.Kind())
		}
		out[i] = p
	}
	return out, nil
}
