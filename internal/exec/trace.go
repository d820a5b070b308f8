package exec

import (
	"fmt"
	"time"

	"repro/internal/ops"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Trace assembly. The engine builds a query-rooted span tree from the
// run's per-operator statistics: one stage span per physical operator,
// and (on a partitioned prefix) one partition span per (partition,
// stage) cell. Execute prepends the optimize span and stamps plan/policy
// attributes, and ExecutePlan stamps the plan it was handed; callers
// read the finished tree from Result.Trace.

// buildRunTrace assembles the root query span, named for the run's shape
// ("sequential" for one batch per stage, "pipelined" otherwise), and its
// per-stage children. Each stage span's simulated duration is the stage's
// clock as folded into the run: the slowest partition's on a partitioned
// prefix.
func buildRunTrace(shape string, stats *ops.RunStats, elapsed time.Duration, cost float64, stageTimes []time.Duration) *trace.Span {
	root := &trace.Span{
		Kind:    trace.KindQuery,
		Name:    shape,
		SimMS:   elapsed.Milliseconds(),
		CostUSD: cost,
	}
	opStats := stats.Ops()
	for i, op := range opStats {
		stage := &trace.Span{
			Kind:         trace.KindStage,
			Name:         op.OpID,
			OpID:         op.OpID,
			OpIndex:      op.Position,
			RecordsIn:    op.InRecords,
			RecordsOut:   op.OutRecords,
			Selectivity:  trace.Selectivity(op.InRecords, op.OutRecords),
			SimMS:        stageTimes[op.Position].Milliseconds(),
			CostUSD:      op.CostUSD,
			LLMCalls:     op.LLMCalls,
			InputTokens:  op.InputTokens,
			OutputTokens: op.OutputTokens,
			CacheHits:    op.CacheHits,
		}
		// Cascade stages carry one child span per tier. RecordsOut is what
		// a tier settles into the stage output (Emitted) plus what it
		// passes deeper (Passed), so consecutive tier spans chain:
		// next.RecordsIn == prev Passed share of this tier's out.
		for _, tier := range op.Tiers {
			stage.Add(&trace.Span{
				Kind:        trace.KindTier,
				Name:        tier.Tier,
				RecordsIn:   tier.In,
				RecordsOut:  tier.Emitted + tier.Passed,
				Selectivity: trace.Selectivity(tier.In, tier.Emitted+tier.Passed),
				SimMS:       tier.Time.Milliseconds(),
				CostUSD:     tier.CostUSD,
				LLMCalls:    tier.LLMCalls,
			})
		}
		root.Add(stage)
		if i == 0 {
			root.RecordsIn = op.InRecords
		}
		if i == len(opStats)-1 {
			root.RecordsOut = op.OutRecords
		}
		root.LLMCalls += op.LLMCalls
		root.InputTokens += op.InputTokens
		root.OutputTokens += op.OutputTokens
		root.CacheHits += op.CacheHits
	}
	return root
}

// attachPartitionSpans nests one partition span per (partition, stage)
// cell under the stage spans of the partitioned prefix, carrying each
// partition's own record counts and stage clock. The count arrays are
// written by exactly one goroutine per cell and read only after the
// pipeline's WaitGroup drains, so no locking is needed here.
func attachPartitionSpans(root *trace.Span, prefixEnd int, partIn, partOut [][]int, partTallies [][]*simclock.Tally) {
	for _, stage := range root.Children {
		if stage.Kind != trace.KindStage || stage.OpIndex >= prefixEnd {
			continue
		}
		i := stage.OpIndex
		for p := range partTallies {
			stage.Add(&trace.Span{
				Kind:        trace.KindPartition,
				Name:        fmt.Sprintf("partition %d", p),
				Partition:   trace.Ordinal(p),
				RecordsIn:   partIn[p][i],
				RecordsOut:  partOut[p][i],
				Selectivity: trace.Selectivity(partIn[p][i], partOut[p][i]),
				SimMS:       partTallies[p][i].Total().Milliseconds(),
			})
		}
	}
}
