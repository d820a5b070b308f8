package ops

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/llm"
	"repro/internal/record"
	"repro/internal/simclock"
)

// Estimate carries the optimizer's running cost-model state along a plan:
// expected cardinality and record size flowing *into* an operator, and the
// accumulated cost, time, and quality of the plan prefix.
type Estimate struct {
	// Cardinality is the expected number of records at this point.
	Cardinality float64
	// AvgTokens is the expected tokens per record's text.
	AvgTokens float64
	// CostUSD is the accumulated expected dollar cost.
	CostUSD float64
	// TimeSec is the accumulated expected runtime in seconds (sequential).
	TimeSec float64
	// Quality is the accumulated expected output quality in (0,1],
	// multiplied across operators the way Palimpzest composes per-operator
	// quality estimates.
	Quality float64
}

// Physical is one physical implementation of a logical operator.
type Physical interface {
	// ID uniquely identifies the implementation, e.g.
	// "llm-filter(atlas-large)".
	ID() string
	// Kind echoes the logical operator family.
	Kind() string
	// Estimate advances the cost model across this operator.
	Estimate(in Estimate) Estimate
	// Execute processes a record batch.
	Execute(ctx *Ctx, in []*record.Record) ([]*record.Record, error)
}

// Streamer is an optional Physical capability. A streamable operator's
// Execute is batch-decomposable: running it over any partition of the input
// and concatenating the outputs (in partition order) is equivalent to one
// call over the whole input. The engine (internal/exec) streams
// record batches through streamable operators and treats every other
// operator as a barrier that materializes its full input first.
type Streamer interface {
	// Streamable reports batch-decomposability.
	Streamable() bool
}

// IsStreamable reports whether p declares the Streamer capability and is
// batch-decomposable. Operators without the capability are conservatively
// treated as blocking.
func IsStreamable(p Physical) bool {
	s, ok := p.(Streamer)
	return ok && s.Streamable()
}

// StreamPrefix is the length of the plan's partitionable prefix: the scan
// at position 0 plus every consecutive streamable operator after it.
// Running the prefix once per partition and concatenating the outputs in
// partition order equals one run over the whole input, so the pipelined
// engine fans it out over in-process range readers and the cluster
// coordinator scatters it across workers; the rest of the plan runs once,
// over the merged records.
func StreamPrefix(phys []Physical) int {
	n := 1
	for n < len(phys) && IsStreamable(phys[n]) {
		n++
	}
	return n
}

// ParallelHinter is an optional Physical capability: an operator that wants
// a worker-pool width different from the engine-wide Config.Parallelism
// (e.g. pure-CPU operators that gain nothing from overlapping LLM calls)
// returns its preference here.
type ParallelHinter interface {
	// PreferredParallelism maps the engine-wide setting to this operator's
	// pool size. Results < 1 are normalized to 1.
	PreferredParallelism(engineWide int) int
}

// StageParallelism resolves the worker-pool width for one operator stage:
// the engine-wide default, overridden by the operator's ParallelHinter
// capability when present.
func StageParallelism(p Physical, engineWide int) int {
	if engineWide < 1 {
		engineWide = 1
	}
	if h, ok := p.(ParallelHinter); ok {
		if n := h.PreferredParallelism(engineWide); n >= 1 {
			return n
		}
		return 1
	}
	return engineWide
}

// PipelinedWallTime folds per-stage times into the streaming engine's
// wall-clock model: consecutive streamable stages overlap, so a segment of
// them costs its maximum stage time; every blocking stage is a barrier
// that waits for all upstream work and then contributes its full time.
// Shared by internal/exec (measured stage durations) and the optimizer
// (estimated stage seconds) so the two can never drift apart.
func PipelinedWallTime[T interface{ ~int64 | ~float64 }](phys []Physical, times []T) T {
	var total, segment T
	for i, op := range phys {
		t := times[i]
		if i > 0 && !IsStreamable(op) {
			total += segment + t
			segment = 0
			continue
		}
		if t > segment {
			segment = t
		}
	}
	return total + segment
}

// Ctx is the execution context shared by physical operators in one run.
type Ctx struct {
	// Client performs completion calls (typically a retry client,
	// optionally wrapped in a cache).
	Client llm.Completer
	// Svc performs embedding calls and holds usage accounting.
	Svc *llm.Service
	// Clock is advanced by operators to model LLM latency.
	Clock simclock.Clock
	// Parallelism is the maximum concurrent LLM calls per operator.
	Parallelism int
	// Stats collects per-operator execution statistics.
	Stats *RunStats
	// Context, when non-nil, carries run cancellation: operators poll it
	// between records so a canceled query stops promptly instead of
	// finishing its batch. Nil means the run can never be canceled.
	Context context.Context

	curOp int
}

// Canceled reports the run's cancellation status: nil while the run is
// live (or has no cancellation context), context.Canceled or
// context.DeadlineExceeded after.
func (c *Ctx) Canceled() error {
	if c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

// SetCurrentOp tells the context which plan position is executing; the
// optimizer's sentinel calibration calls this before each operator it
// samples. The engine uses ForOp instead, because its stages run
// concurrently.
func (c *Ctx) SetCurrentOp(idx int) { c.curOp = idx }

// ForOp returns a copy of the context pinned to plan position pos, with its
// own clock and parallelism. The engine derives one per
// operator stage so that concurrent stages never share the mutable
// current-operator field and each stage's simulated time accrues on its own
// clock. Stats (mutex-protected) and the LLM client remain shared.
func (c *Ctx) ForOp(pos int, clock simclock.Clock, parallelism int) *Ctx {
	child := *c
	child.curOp = pos
	child.Clock = clock
	child.Parallelism = parallelism
	return &child
}

// parallelismOrOne normalizes the parallelism setting.
func (c *Ctx) parallelismOrOne() int {
	if c.Parallelism < 1 {
		return 1
	}
	return c.Parallelism
}

// OpStats is the per-operator execution record shown in the paper's
// Figure 5 statistics panel.
type OpStats struct {
	// Position is the operator's index in the plan.
	Position int
	// OpID and Kind identify the physical operator.
	OpID string
	Kind string
	// InRecords and OutRecords are the batch sizes.
	InRecords  int
	OutRecords int
	// LLMCalls, InputTokens, OutputTokens, CostUSD account LLM work;
	// CacheHits counts the calls answered by the response cache.
	LLMCalls     int
	InputTokens  int
	OutputTokens int
	CacheHits    int
	CostUSD      float64
	// Time is the simulated wall-clock the operator consumed.
	Time time.Duration
	// Tiers breaks a multi-tier operator's work down per routing tier
	// (the cascade filter's prefilter/verify/resolve). Empty for
	// single-tier operators. The exec layer renders each entry as a
	// child span of the operator's stage span.
	Tiers []TierStat
}

// TierStat is one routing tier's share of a multi-tier operator's work.
// Record flow is conserved per tier: In = Emitted + Dropped + Passed,
// and the next tier's In equals this tier's Passed — invariants the
// trace tests reconcile against the parent stage.
type TierStat struct {
	// Tier names the tier ("prefilter", "verify", "resolve").
	Tier string
	// In is how many records entered the tier.
	In int
	// Emitted is how many records the tier decided to keep (they become
	// operator output).
	Emitted int
	// Dropped is how many records the tier rejected.
	Dropped int
	// Passed is how many records the tier escalated to the next tier.
	Passed int
	// LLMCalls and CostUSD account the tier's LLM work.
	LLMCalls int
	CostUSD  float64
	// Time is the simulated wall-clock the tier consumed.
	Time time.Duration
}

// RunStats aggregates operator statistics for a pipeline run.
type RunStats struct {
	mu  sync.Mutex
	ops map[int]*OpStats
}

// NewRunStats returns empty statistics.
func NewRunStats() *RunStats { return &RunStats{ops: map[int]*OpStats{}} }

// op returns the stats row of the operator at plan position pos, creating
// it on first use; only then does it ask p for its ID and Kind. The caller
// holds s.mu.
func (s *RunStats) op(pos int, p Physical) *OpStats {
	st := s.ops[pos]
	if st == nil {
		st = &OpStats{Position: pos, OpID: p.ID(), Kind: p.Kind()}
		s.ops[pos] = st
	}
	return st
}

// noteBatch records batch sizes for an operator.
func (s *RunStats) noteBatch(pos int, p Physical, in, out int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.op(pos, p)
	st.InRecords += in
	st.OutRecords += out
}

// noteLLM records one LLM response against an operator.
func (s *RunStats) noteLLM(pos int, p Physical, resp *llm.Response) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.op(pos, p)
	st.LLMCalls++
	st.InputTokens += resp.InputTokens
	st.OutputTokens += resp.OutputTokens
	if resp.Cached {
		st.CacheHits++
	}
	st.CostUSD += resp.CostUSD
}

// noteTime records simulated time consumed by an operator.
func (s *RunStats) noteTime(pos int, p Physical, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.op(pos, p).Time += d
}

// noteTier accumulates one batch's tier-level accounting onto an operator,
// merging by tier name (the engine calls this once per tier per
// batch). Tier order in OpStats.Tiers is first-recorded order, which is
// the cascade's fixed tier order because every batch records its tiers
// front to back.
func (s *RunStats) noteTier(pos int, p Physical, t TierStat) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.op(pos, p)
	for i := range st.Tiers {
		if st.Tiers[i].Tier == t.Tier {
			st.Tiers[i].In += t.In
			st.Tiers[i].Emitted += t.Emitted
			st.Tiers[i].Dropped += t.Dropped
			st.Tiers[i].Passed += t.Passed
			st.Tiers[i].LLMCalls += t.LLMCalls
			st.Tiers[i].CostUSD += t.CostUSD
			st.Tiers[i].Time += t.Time
			return
		}
	}
	st.Tiers = append(st.Tiers, t)
}

// Ops returns the per-operator stats ordered by plan position.
func (s *RunStats) Ops() []OpStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]OpStats, 0, len(s.ops))
	for _, st := range s.ops {
		cp := *st
		// Deep-copy the tier slice: callers may read the snapshot while
		// later batches keep merging into the live entries.
		cp.Tiers = append([]TierStat(nil), st.Tiers...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Position < out[j].Position })
	return out
}

// TotalCost sums operator costs.
func (s *RunStats) TotalCost() float64 {
	var c float64
	for _, op := range s.Ops() {
		c += op.CostUSD
	}
	return c
}

// TotalLLMCalls sums operator LLM calls.
func (s *RunStats) TotalLLMCalls() int {
	n := 0
	for _, op := range s.Ops() {
		n += op.LLMCalls
	}
	return n
}

// completionModelNames lists catalog completion models, best-first.
func completionModelNames() []string {
	cards := llm.CompletionModels()
	out := make([]string, len(cards))
	for i, c := range cards {
		out[i] = c.Name
	}
	return out
}

// advanceForCalls advances the clock to account for a batch of concurrent
// LLM calls: with parallelism p, elapsed time is max(longest single call,
// total/p).
func advanceForCalls(ctx *Ctx, latencies []time.Duration) time.Duration {
	if len(latencies) == 0 {
		return 0
	}
	var sum, max time.Duration
	for _, l := range latencies {
		sum += l
		if l > max {
			max = l
		}
	}
	p := ctx.parallelismOrOne()
	elapsed := sum / time.Duration(p)
	if elapsed < max {
		elapsed = max
	}
	ctx.Clock.Sleep(elapsed)
	return elapsed
}

// PanicError is a panic raised while an operator ran, recovered on the
// goroutine it happened in and returned as its query's error, so that one
// bad operator or record cannot take down the process and every other
// query in it. The engines wrap it with the operator's position and ID.
type PanicError struct {
	// Value is what was passed to panic.
	Value any
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Recover, deferred by a function with a named error result, turns a
// panic in that function into a *PanicError in *err.
func Recover(err *error) {
	if v := recover(); v != nil {
		*err = &PanicError{Value: v}
	}
}

// Run executes op over in, returning a panic inside it as a *PanicError.
// The engines and the optimizer's calibration run operators through it.
func Run(ctx *Ctx, op Physical, in []*record.Record) (out []*record.Record, err error) {
	defer Recover(&err)
	return op.Execute(ctx, in)
}

// guarded is fn(r) with a panic returned as a *PanicError. runParallel's
// workers run on goroutines of their own, where no caller could recover.
func guarded[T any](fn func(*record.Record) (T, error), r *record.Record) (res T, err error) {
	defer Recover(&err)
	return fn(r)
}

// runParallel applies fn to every record with bounded concurrency,
// preserving input order of results. The first error cancels nothing (all
// workers finish their current item) but is returned; a panic in fn is
// returned as a *PanicError. Cancellation via Ctx.Context is checked
// before each record is dispatched: in-flight records complete,
// undispatched ones are skipped, and the context error is returned.
func runParallel[T any](ctx *Ctx, in []*record.Record, fn func(*record.Record) (T, error)) ([]T, error) {
	p := ctx.parallelismOrOne()
	if p > len(in) {
		p = len(in)
	}
	results := make([]T, len(in))
	errs := make([]error, len(in))
	if p <= 1 {
		for i, r := range in {
			if err := ctx.Canceled(); err != nil {
				return nil, err
			}
			results[i], errs[i] = guarded(fn, r)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < p; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					results[i], errs[i] = guarded(fn, in[i])
				}
			}()
		}
		for i := range in {
			if ctx.Canceled() != nil {
				break
			}
			work <- i
		}
		close(work)
		wg.Wait()
	}
	if err := ctx.Canceled(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// dedupKey renders a record's selected fields as a map key.
func dedupKey(r *record.Record, fields []string) string {
	if len(fields) == 0 {
		fields = r.Schema().FieldNames()
	}
	parts := make([]string, len(fields))
	for i, f := range fields {
		parts[i] = f + "=" + r.GetString(f)
	}
	return strings.Join(parts, "\x00")
}

// cheapOpSecs is the modeled runtime of a non-LLM operator per record.
const cheapOpSecs = 0.0001

// estimateCheap advances an Estimate across a zero-cost relational
// operator with the given output cardinality.
func estimateCheap(in Estimate, outCard float64) Estimate {
	out := in
	out.Cardinality = outCard
	out.TimeSec += in.Cardinality * cheapOpSecs
	return out
}
