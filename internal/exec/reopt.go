package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/internal/trace"
)

// Mid-flight re-optimization, exec side (ROADMAP item 3). When a plan was
// optimized with ReoptAfterBatches > 0, an overlapping run arms a
// reoptController over the plan's re-orderable filter window (a run of
// adjacent record-wise NL filters, see optimizer.ReorderableWindow). Each
// window stage reports its observed record flow and cost after completing
// its K-th batch; the entry stage then parks until every window stage has
// reported and optimizer.Replan has decided whether the remaining batches
// should flow through a cheaper filter ordering.
//
// The swap is coordinated by an epoch tag on batches: the entry stage
// stamps epoch 1 on everything it emits after the decision, and each
// downstream window stage picks its operator by the epoch of the batch in
// hand. Because the window operators are order-commuting filters, the
// output stays byte-identical to a never-swapped run; only the cost of
// producing it changes. Partitioned prefixes run the window once per
// partition with interleaved batch order, and a one-batch run has no
// batch after the K-th, so in-flight swapping is restricted to
// non-partitioned overlapping runs — the others still get the post-run
// estimate correction below.

// ReoptInfo summarizes a run's re-optimization check on the Result.
type ReoptInfo struct {
	// Divergence is the worst observed relative estimate error;
	// Threshold is the trigger the run was configured with.
	Divergence float64
	Threshold  float64
	// AfterBatches is the observation window K (plan knob).
	AfterBatches int
	// Triggered reports Divergence >= Threshold; Swapped that a cheaper
	// filter ordering was actually adopted.
	Triggered bool
	Swapped   bool
	// Phase is "inflight" when the engine decided mid-run,
	// "postrun" when only the full-run estimate correction applied.
	Phase string
	// OldPlan and NewPlan are plan displays (equal unless Swapped).
	OldPlan string
	NewPlan string
	// CorrectedPlan carries observed selectivities/fan-outs folded into
	// the plan's estimates — the re-ordered plan when Swapped, the
	// estimate-corrected original otherwise. The serving plan cache
	// stores it so repeat queries start from observed statistics.
	CorrectedPlan *optimizer.Plan
}

// reoptController coordinates one overlapping run's mid-flight check.
type reoptController struct {
	plan   *optimizer.Plan
	k      int // batches each window stage observes before reporting
	lo, hi int // re-orderable window [lo, hi)
	stats  *ops.RunStats

	mu       sync.Mutex
	obs      []optimizer.StageObservation
	posted   map[int]bool
	decision *optimizer.ReplanDecision
	swapOps  []ops.Physical // epoch-1 operators for window slots; nil unless swapped
	decided  chan struct{}
}

// newReoptController arms a controller for a plan, or returns nil when the
// plan has no re-optimization knob or no re-orderable window. The engine
// (run) fills in stats before stages start.
func newReoptController(plan *optimizer.Plan) *reoptController {
	if plan == nil || plan.Opts.ReoptAfterBatches <= 0 {
		return nil
	}
	lo, hi, ok := optimizer.ReorderableWindow(plan)
	if !ok {
		return nil
	}
	return &reoptController{
		plan:    plan,
		k:       plan.Opts.ReoptAfterBatches,
		lo:      lo,
		hi:      hi,
		posted:  map[int]bool{},
		decided: make(chan struct{}),
	}
}

// inWindow reports whether a stage participates in the swap window.
func (rc *reoptController) inWindow(pos int) bool {
	return pos >= rc.lo && pos < rc.hi
}

// post records stage pos's first-K-batches observation. The last window
// stage to report computes the decision and releases the parked entry
// stage. The stage's accumulated cost is read from the run stats — safe
// because only the posting stage's goroutine writes that position's row
// and its K-th Execute has returned.
func (rc *reoptController) post(pos, in, out int) {
	var cost float64
	for _, row := range rc.stats.Ops() {
		if row.Position == pos {
			cost = row.CostUSD
		}
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.posted[pos] {
		return
	}
	rc.posted[pos] = true
	rc.obs = append(rc.obs, optimizer.StageObservation{Pos: pos, In: in, Out: out, CostUSD: cost})
	if len(rc.posted) < rc.hi-rc.lo {
		return
	}
	rc.decision = optimizer.Replan(rc.plan, rc.obs, rc.lo, rc.hi)
	if rc.decision.Swapped {
		rc.swapOps = rc.decision.NewPlan.Ops[rc.lo:rc.hi]
	}
	close(rc.decided)
}

// waitDecided parks the entry stage until the decision lands (or the run
// is cancelled; returns false to abandon the stage).
func (rc *reoptController) waitDecided(ctx context.Context) bool {
	select {
	case <-rc.decided:
		return true
	case <-ctx.Done():
		return false
	}
}

// opFor picks the operator a window slot runs for a batch epoch. Epoch-1
// batches only exist after the decision closed rc.decided, so the swap
// table is settled by the time it is consulted.
func (rc *reoptController) opFor(pos, epoch int, cur ops.Physical) ops.Physical {
	if epoch == 0 {
		return cur
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.swapOps == nil {
		return cur
	}
	return rc.swapOps[pos-rc.lo]
}

// result returns the in-flight decision, or nil when the run ended before
// every window stage completed K batches.
func (rc *reoptController) result() *optimizer.ReplanDecision {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.decision
}

// observationsFromStats converts a completed run's per-operator statistics
// into replan observations — the post-run correction input.
func observationsFromStats(stats *ops.RunStats) []optimizer.StageObservation {
	var obs []optimizer.StageObservation
	for _, row := range stats.Ops() {
		obs = append(obs, optimizer.StageObservation{
			Pos: row.Position, In: row.InRecords, Out: row.OutRecords, CostUSD: row.CostUSD,
		})
	}
	return obs
}

// runPlan executes an optimized plan, labeling the result and its trace
// with the plan and policyDesc. Re-optimization is armed when the plan
// carries the knob: an overlapping run gets the in-flight hot-swap
// controller, and every run the engine disarms it on (one-batch,
// partitioned, or too short to decide mid-flight) falls back to a post-run
// estimate correction so the plan cache still inherits observed
// statistics.
func (e *Executor) runPlan(ctx context.Context, plan *optimizer.Plan, policyDesc string) (*Result, error) {
	rc := newReoptController(plan)
	res, err := e.run(ctx, plan.Ops, rc, !e.pipelined(scanParts(plan.Ops)))
	if err != nil {
		return nil, err
	}
	res.Plan, res.Policy = plan, policyDesc
	res.Trace.SetAttr("policy", policyDesc)
	res.Trace.SetAttr("plan", plan.String())
	if plan.Opts.ReoptAfterBatches <= 0 {
		return res, nil
	}

	info := &ReoptInfo{AfterBatches: plan.Opts.ReoptAfterBatches}
	dec := rc.result()
	if dec != nil {
		info.Phase = "inflight"
	} else {
		info.Phase = "postrun"
		dec = optimizer.Replan(plan, observationsFromStats(res.Stats), 0, 0)
	}
	info.Divergence = dec.Divergence
	info.Threshold = dec.Threshold
	info.Triggered = dec.Triggered
	info.Swapped = dec.Swapped
	info.OldPlan = reoptPlanDisplay(plan)
	if dec.Swapped {
		info.NewPlan = reoptPlanDisplay(dec.NewPlan)
		info.CorrectedPlan = dec.NewPlan
	} else {
		info.NewPlan = info.OldPlan
		info.CorrectedPlan = dec.Corrected
	}
	res.Reopt = info
	appendReoptSpan(res.Trace, info)
	return res, nil
}

// reoptPlanDisplay renders a plan like Plan.String but with a predicate
// snippet on each NL filter stage: a swap permutes same-model filters, so
// the bare operator IDs would make the old and new plan displays
// indistinguishable exactly when they matter.
func reoptPlanDisplay(p *optimizer.Plan) string {
	ids := make([]string, len(p.Ops))
	for i, op := range p.Ops {
		ids[i] = op.ID()
		if f, ok := op.(*ops.LLMFilterExec); ok && f.Filter != nil {
			ids[i] = fmt.Sprintf("llm-filter(%s, %q)", f.Model, predicateSnippet(f.Filter.Predicate))
		}
	}
	return strings.Join(ids, " -> ")
}

// predicateSnippet truncates a predicate for plan displays.
func predicateSnippet(pred string) string {
	const max = 24
	if len(pred) <= max {
		return pred
	}
	return pred[:max-1] + "…"
}

// appendReoptSpan attaches the run's re-optimization check to its trace.
func appendReoptSpan(tr *trace.Span, ri *ReoptInfo) {
	sp := &trace.Span{Kind: trace.KindReopt, Name: "reopt"}
	sp.SetAttr("phase", ri.Phase)
	sp.SetAttr("divergence", fmt.Sprintf("%.4f", ri.Divergence))
	sp.SetAttr("threshold", fmt.Sprintf("%.4f", ri.Threshold))
	sp.SetAttr("after_batches", fmt.Sprint(ri.AfterBatches))
	sp.SetAttr("triggered", fmt.Sprint(ri.Triggered))
	sp.SetAttr("swapped", fmt.Sprint(ri.Swapped))
	sp.SetAttr("old_plan", ri.OldPlan)
	sp.SetAttr("new_plan", ri.NewPlan)
	tr.Add(sp)
}
