package optimizer

import (
	"math"

	"repro/internal/ops"
)

// Mid-flight re-optimization (ROADMAP item 3). The optimizer commits to a
// plan from priors; the engines measure per-stage observed selectivity and
// cost while running. Replan closes the loop: it scores how far the
// observations diverge from the plan's estimates, folds the observations
// back into corrected estimates, and — past the divergence threshold —
// re-ranks the orderings of the plan's re-orderable filter window so the
// engine can hot-swap the remaining work onto the cheaper order.
//
// Only runs of adjacent record-wise natural-language filters
// (*ops.LLMFilterExec) are re-ordered: they judge each record independently
// and preserve input order, so any permutation keeps the output
// byte-identical while the total cost depends on which filter prunes
// first. Model choices are never changed mid-flight — a different model
// makes different decisions, which would break the byte-identity contract.

// ReoptDivergence is the relative estimate divergence that triggers a
// re-plan: the worst per-stage relative error between observed and
// estimated selectivity or per-record cost.
const ReoptDivergence = 0.25

const (
	// maxReorderRun caps the length of a filter run considered for
	// re-ordering (L! permutations).
	maxReorderRun = 5
	// maxOrderings caps the total slot orderings enumerate expands.
	maxOrderings = 24
)

// reorderableFilter reports whether a logical operator may be re-ordered
// against its neighbours: a pure natural-language filter. UDF filters are
// excluded — their purity is unknown to the optimizer.
func reorderableFilter(lop ops.Logical) bool {
	f, ok := lop.(*ops.Filter)
	return ok && f.UDF == nil
}

// reorderableRuns returns the maximal runs [start, end) of length >= 2 of
// consecutive re-orderable filters at positions >= 1.
func reorderableRuns(chain []ops.Logical) [][2]int {
	var runs [][2]int
	for start := 1; start < len(chain); {
		if !reorderableFilter(chain[start]) {
			start++
			continue
		}
		end := start
		for end < len(chain) && reorderableFilter(chain[end]) {
			end++
		}
		if end-start >= 2 && end-start <= maxReorderRun {
			runs = append(runs, [2]int{start, end})
		}
		start = end
	}
	return runs
}

// effSelectivity is the calibrated-or-default selectivity estimate the
// cost model will use for a filter position.
func effSelectivity(calib Calibration, pos int) float64 {
	if oc, ok := calib[pos]; ok && oc.Selectivity > 0 {
		return oc.Selectivity
	}
	return 0.5
}

// selectivitiesDiffer reports whether a run's calibrated selectivities are
// not all equal — with uniform estimates every ordering prices
// identically and re-ordering would only bloat the candidate set.
func selectivitiesDiffer(calib Calibration, start, end int) bool {
	first := effSelectivity(calib, start)
	for pos := start + 1; pos < end; pos++ {
		if math.Abs(effSelectivity(calib, pos)-first) > 1e-9 {
			return true
		}
	}
	return false
}

// permutations returns every permutation of ints, in lexicographic order
// starting from the input (so the identity comes first).
func permutations(ints []int) [][]int {
	var out [][]int
	var recur func(prefix, rest []int)
	recur = func(prefix, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), prefix...))
			return
		}
		for i := range rest {
			nr := make([]int, 0, len(rest)-1)
			nr = append(nr, rest[:i]...)
			nr = append(nr, rest[i+1:]...)
			recur(append(prefix, rest[i]), nr)
		}
	}
	recur(nil, ints)
	return out
}

// filterOrderings returns the slot orderings enumerate expands: the
// identity first, then every permutation of each re-orderable filter run
// whose calibrated selectivities actually differ (composed across runs,
// capped at maxOrderings).
func filterOrderings(chain []ops.Logical, calib Calibration) [][]int {
	identity := make([]int, len(chain))
	for i := range identity {
		identity[i] = i
	}
	combined := [][]int{identity}
	for _, run := range reorderableRuns(chain) {
		lo, hi := run[0], run[1]
		if !selectivitiesDiffer(calib, lo, hi) {
			continue
		}
		positions := make([]int, hi-lo)
		for i := range positions {
			positions[i] = lo + i
		}
		runPerms := permutations(positions)
		var next [][]int
		for _, base := range combined {
			for _, rp := range runPerms {
				cand := append([]int(nil), base...)
				copy(cand[lo:hi], rp)
				next = append(next, cand)
				if len(next) >= maxOrderings {
					return next
				}
			}
		}
		combined = next
	}
	return combined
}

// ReorderableWindow finds the first run of length >= 2 of consecutive
// re-orderable natural-language filter stages in a physical plan — the
// engine's hot-swap window. Returns lo, hi (half-open) and ok=false when
// no such window exists. Only *ops.LLMFilterExec qualifies: the embed
// filter thresholds on whole-batch statistics and the cascade filter
// carries shared index state, so neither commutes batch-wise.
func ReorderableWindow(plan *Plan) (lo, hi int, ok bool) {
	for start := 1; start < len(plan.Ops); {
		if _, isNL := plan.Ops[start].(*ops.LLMFilterExec); !isNL || !reorderableFilter(plan.Logical[start]) {
			start++
			continue
		}
		end := start
		for end < len(plan.Ops) {
			if _, isNL := plan.Ops[end].(*ops.LLMFilterExec); !isNL || !reorderableFilter(plan.Logical[end]) {
				break
			}
			end++
		}
		if end-start >= 2 {
			return start, end, true
		}
		start = end
	}
	return 0, 0, false
}

// StageObservation is one executed stage's measured record flow and cost,
// gathered by the engines from ops.RunStats.
type StageObservation struct {
	// Pos is the stage's plan position.
	Pos int
	// In and Out are the records that entered and left the stage.
	In, Out int
	// CostUSD is the stage's accumulated dollar cost.
	CostUSD float64
}

// ReplanDecision is the outcome of comparing a running plan against its
// observations.
type ReplanDecision struct {
	// Divergence is the worst per-stage relative error between observed
	// and estimated selectivity or per-record cost.
	Divergence float64
	// Threshold is the divergence that triggers a re-plan.
	Threshold float64
	// Triggered reports Divergence >= Threshold.
	Triggered bool
	// Swapped reports that a cheaper filter ordering was found; NewPlan
	// holds it.
	Swapped bool
	// Corrected is the original plan with observed selectivities and
	// fan-outs folded into its estimates (always set). The serving plan
	// cache stores it so repeat queries start from observed statistics.
	Corrected *Plan
	// NewPlan is Corrected with the window re-ordered to the cheapest
	// ordering; nil unless Swapped.
	NewPlan *Plan
	// WindowLo and WindowHi bound the re-ordering window [lo, hi) the
	// decision considered (0,0 when none).
	WindowLo, WindowHi int
	// Perm maps window slots to the original plan positions executing
	// there after the swap (Perm[i] is the old position now at lo+i).
	// nil unless Swapped.
	Perm []int
}

// Replan compares a plan's estimates against observed stage statistics,
// folds the observations into a corrected plan, and — when divergence
// crosses ReoptDivergence and [lo, hi) is a valid re-orderable
// window — re-ranks the window's orderings by (cost, time) and proposes
// the best. Pass lo = hi = 0 to skip re-ordering (estimate correction
// only, the engine's post-run path).
func Replan(plan *Plan, observations []StageObservation, lo, hi int) *ReplanDecision {
	dec := &ReplanDecision{
		Threshold: ReoptDivergence,
		WindowLo:  lo,
		WindowHi:  hi,
	}
	obs := make(map[int]StageObservation, len(observations))
	for _, o := range observations {
		if o.Pos >= 1 && o.Pos < len(plan.Ops) && o.In > 0 {
			obs[o.Pos] = o
		}
	}

	// Divergence: worst relative error across observed stages, on
	// selectivity (records out per record in) and per-record cost.
	for pos, o := range obs {
		inCard := plan.PerOp[pos-1].Cardinality
		if inCard <= 0 {
			continue
		}
		estSel := plan.PerOp[pos].Cardinality / inCard
		obsSel := float64(o.Out) / float64(o.In)
		if d := math.Abs(obsSel-estSel) / math.Max(estSel, 0.05); d > dec.Divergence {
			dec.Divergence = d
		}
		estCostPer := (plan.PerOp[pos].CostUSD - plan.PerOp[pos-1].CostUSD) / inCard
		obsCostPer := o.CostUSD / float64(o.In)
		if estCostPer > 0 || obsCostPer > 0 {
			if d := math.Abs(obsCostPer-estCostPer) / math.Max(estCostPer, 1e-6); d > dec.Divergence {
				dec.Divergence = d
			}
		}
	}
	dec.Triggered = len(obs) > 0 && dec.Divergence >= dec.Threshold

	// Corrected plan: observed ratios replace the estimates they diverged
	// from, and the cost model is re-folded over the unchanged operators.
	corrected := *plan
	corrected.Ops = append([]ops.Physical(nil), plan.Ops...)
	for pos, o := range obs {
		ratio := float64(o.Out) / float64(o.In)
		switch plan.Ops[pos].Kind() {
		case "filter":
			if ratio == 0 {
				// A zero observed selectivity on a finite prefix must not
				// wipe downstream estimates (mirrors Calibrate).
				ratio = 0.5 / float64(o.In+1)
			}
			corrected.Ops[pos] = withObservedSelectivity(plan.Ops[pos], ratio)
		case "convert":
			corrected.Ops[pos] = withObservedFanout(plan.Ops[pos], ratio)
		}
	}
	refold(&corrected)
	dec.Corrected = &corrected

	if !dec.Triggered || hi-lo < 2 || lo < 1 || hi > len(plan.Ops) {
		return dec
	}
	for pos := lo; pos < hi; pos++ {
		if _, isNL := corrected.Ops[pos].(*ops.LLMFilterExec); !isNL {
			return dec
		}
	}

	// Re-rank the window's orderings on the corrected estimates. Quality
	// is invariant under permutation (per-operator accuracies multiply),
	// so (cost, time) lexicographic ranking is policy-free.
	positions := make([]int, hi-lo)
	for i := range positions {
		positions[i] = lo + i
	}
	best := &corrected
	bestPerm := positions
	for _, perm := range permutations(positions)[1:] {
		cand := corrected
		cand.Ops = append([]ops.Physical(nil), corrected.Ops...)
		cand.Logical = append([]ops.Logical(nil), corrected.Logical...)
		for i, from := range perm {
			cand.Ops[lo+i] = corrected.Ops[from]
			cand.Logical[lo+i] = corrected.Logical[from]
		}
		refold(&cand)
		if cand.Cost() < best.Cost() ||
			(cand.Cost() == best.Cost() && cand.Time() < best.Time()) {
			c := cand
			best, bestPerm = &c, perm
		}
	}
	if best != &corrected {
		dec.Swapped = true
		dec.NewPlan = best
		dec.Perm = bestPerm
	}
	return dec
}

// refold recomputes a plan's cost-model trajectory from its (possibly
// updated) operators: PerOp[0] (the scan) is kept, every later estimate
// is re-derived, and the derived fields follow.
func refold(p *Plan) {
	perOp := append([]ops.Estimate(nil), p.PerOp[:1]...)
	prev := perOp[0]
	for i := 1; i < len(p.Ops); i++ {
		prev = p.Ops[i].Estimate(prev)
		perOp = append(perOp, prev)
	}
	p.PerOp = perOp
	p.Final = prev
	fanout := 1
	if sc, ok := p.Ops[0].(*ops.ScanExec); ok {
		fanout = sc.Partitions()
	}
	p.TimePipelined = pipelinedTimeSec(p, fanout)
}

// withObservedSelectivity returns a copy of a filter operator carrying an
// observed selectivity estimate; non-filter (or self-calibrating)
// operators pass through unchanged.
func withObservedSelectivity(p ops.Physical, sel float64) ops.Physical {
	switch t := p.(type) {
	case *ops.LLMFilterExec:
		cp := *t
		cp.SelEstimate = sel
		return &cp
	case *ops.EmbedFilterExec:
		cp := *t
		cp.SelEstimate = sel
		return &cp
	}
	return p
}

// withObservedFanout is withObservedSelectivity for converts.
func withObservedFanout(p ops.Physical, fan float64) ops.Physical {
	if t, ok := p.(*ops.LLMConvertExec); ok {
		cp := *t
		cp.FanoutEstimate = fan
		return &cp
	}
	return p
}
