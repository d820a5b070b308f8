package exec

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/ops"
	"repro/internal/record"
	"repro/internal/simclock"
)

// The execution engine. Operators are connected by bounded channels of
// sequence-tagged record batches; every stage runs in its own goroutine,
// processing batches with the worker-pool width resolved by
// ops.StageParallelism. Bounded channels give backpressure (a fast scan
// cannot run arbitrarily far ahead of a slow convert), a context cancels
// all stages on the first error, and the sink reassembles batches by
// sequence number so output order is dataset order.
//
// Simulated time: each stage accrues latency on its own simclock.Tally.
// Stages that stream overlap, so a run of consecutive streamable stages
// costs the maximum of their stage times; a blocking stage (sort,
// aggregate, retrieve, ...) is a barrier that must wait for all upstream
// work and then contributes its full time. A one-batch run (no
// parallelism, no fan-out) has nothing to overlap: it costs the sum of
// its stage times. The shared clock advances by that combined wall-clock
// once at the end of the run.

// pipelineDepth bounds each inter-stage channel: at most this many batches
// buffer between adjacent stages before the producer blocks (backpressure).
const pipelineDepth = 2

// defaultStreamBatch is the batch size used when Config.StreamBatchSize is
// zero and Parallelism does not demand a larger one.
const defaultStreamBatch = 8

// Progress is one pipeline progress event, reported per completed batch
// of a stage (per operator on a one-batch run).
type Progress struct {
	// OpIndex is the operator's position in the physical plan.
	OpIndex int
	// OpID and Kind identify the physical operator.
	OpID string
	Kind string
	// Batches is how many batches the stage has completed so far.
	Batches int
	// Records is the cumulative record count the stage has emitted.
	Records int
}

// batch is a sequence-tagged slice of records flowing between stages.
// epoch distinguishes batches emitted before (0) and after (1) a
// mid-flight re-optimization decision: window stages pick their operator
// by the epoch of the batch in hand, so a hot swap never mixes orderings
// within one batch (see reopt.go).
type batch struct {
	seq   int
	recs  []*record.Record
	epoch int
}

// batchSize resolves the configured stream batch size. The result is never
// below Parallelism: a smaller batch would cap the per-stage worker pool at
// the batch size (runParallel clamps to the batch length), serializing LLM
// calls inside every stage and making the overlapping run slower than a
// one-batch run.
func (e *Executor) batchSize() int {
	size := e.cfg.StreamBatchSize
	if size <= 0 {
		size = defaultStreamBatch
	}
	if size < e.cfg.Parallelism {
		size = e.cfg.Parallelism
	}
	return size
}

// progress emits one progress event (serialized, so callbacks never run
// concurrently even though stages do).
func (e *Executor) progress(pos int, op ops.Physical, batches, records int) {
	if e.cfg.OnProgress == nil {
		return
	}
	e.progressMu.Lock()
	e.cfg.OnProgress(Progress{
		OpIndex: pos, OpID: op.ID(), Kind: op.Kind(),
		Batches: batches, Records: records,
	})
	e.progressMu.Unlock()
}

// RunPipelined executes a physical plan streaming batches of
// Config.StreamBatchSize records with overlapping stages, whatever the
// configured parallelism. Most callers should use Run.
func (e *Executor) RunPipelined(ctx context.Context, phys []ops.Physical) (*Result, error) {
	return e.run(ctx, phys, nil, false)
}

// run is the engine body. oneBatch runs the plan as one batch per stage
// with no partition fan-out, folding stage clocks as a sum. rc, when
// non-nil, arms mid-flight re-optimization over the plan's filter window
// (see reopt.go); it is disarmed below on one-batch runs, which have no
// batch after the decision, and on partitioned runs, whose interleaved
// per-partition batch order has no single swap point. The engine's
// first-error cancellation context derives from parent, so a canceled
// caller tears down every stage the same way an operator error does, and
// the run reports the parent's context error.
func (e *Executor) run(parent context.Context, phys []ops.Physical, rc *reoptController, oneBatch bool) (*Result, error) {
	if len(phys) == 0 {
		return nil, fmt.Errorf("exec: empty physical plan")
	}
	scan, ok := phys[0].(*ops.ScanExec)
	if !ok {
		return nil, fmt.Errorf("exec: plan must start with a scan, not %s", phys[0].ID())
	}
	root := e.NewCtx()
	start := e.clock.Now()

	cctx, cancel := context.WithCancel(parent)
	defer cancel()
	root.Context = cctx
	var failOnce sync.Once
	var failErr error
	fail := func(pos int, op ops.Physical, err error) {
		failOnce.Do(func() {
			failErr = fmt.Errorf("exec: operator %d (%s): %w", pos, op.ID(), err)
			cancel()
		})
	}

	// Partition fan-out: a plan-carried hint (the optimizer stamps the
	// scan) wins over the engine default; the source then decides how many
	// partitions it can actually provide. A plain scan is one partition.
	parts := e.cfg.Partitions
	if scan.Parts > 0 {
		parts = scan.Parts
	}
	size := e.batchSize()
	if oneBatch {
		// The scan emits the whole dataset as one batch, and every stage
		// runs once over its full input.
		parts, size = 1, math.MaxInt
	}
	layout, err := scan.Layout(parts)
	if err != nil {
		return nil, fmt.Errorf("exec: operator 0 (%s): %w", scan.ID(), err)
	}
	// When the scan splits, its stream prefix runs once per partition;
	// the first blocking stage (or the sink) is where the partitions merge.
	prefixEnd := 1
	if len(layout) > 1 {
		prefixEnd = ops.StreamPrefix(phys)
	}
	// Without a batch after the K-th there is nothing to swap, and
	// partitioned prefixes run the window once per partition with
	// interleaved batch order — no coherent swap point. The caller falls
	// back to the post-run estimate correction.
	if rc != nil && !oneBatch && len(layout) == 1 {
		rc.stats = root.Stats
	} else {
		rc = nil
	}

	// chans[i] carries stage i's output batches.
	chans := make([]chan batch, len(phys))
	for i := range chans {
		chans[i] = make(chan batch, pipelineDepth)
	}
	send := func(ch chan<- batch, b batch) bool {
		select {
		case ch <- b:
			return true
		case <-cctx.Done():
			return false
		}
	}
	var wg sync.WaitGroup

	// Source: one source+map sub-pipeline per partition over stages
	// [0, prefixEnd), all feeding the shared merge channel
	// chans[prefixEnd-1]. Batches carry globally unique sequence tags
	// precomputed from the layout — partition p's batches start at
	// seqBase[p], and an empty partition still sends one batch — so the
	// seq-tag merge (the barrier's sort, or the sink's) reassembles exact
	// dataset order no matter how partition outputs interleave.
	seqBase := make([]int, len(layout))
	starts := make([]int, len(layout))
	for p := 1; p < len(layout); p++ {
		seqBase[p] = seqBase[p-1] + max(1, (layout[p-1]+size-1)/size)
		starts[p] = starts[p-1] + layout[p-1]
	}
	// Cumulative per-stage progress across partitions, emitted under one
	// lock so counts never appear to regress.
	var progMu sync.Mutex
	progBatches := make([]int, prefixEnd)
	progRecords := make([]int, prefixEnd)
	note := func(stage, recs int) {
		progMu.Lock()
		defer progMu.Unlock()
		progBatches[stage]++
		progRecords[stage] += recs
		e.progress(stage, phys[stage], progBatches[stage], progRecords[stage])
	}
	// partTallies[p][i] is partition p's stage-i clock in the prefix; the
	// run's wall-clock takes the maximum across partitions, because
	// partitions execute concurrently. partIn/partOut mirror the layout
	// with per-cell record counts for the trace's partition spans: exactly
	// one goroutine writes each (p, i) cell, and they are read only after
	// wg.Wait, so no locking is needed.
	partTallies := make([][]*simclock.Tally, len(layout))
	partIn := make([][]int, len(layout))
	partOut := make([][]int, len(layout))
	// mergeWG counts the goroutines feeding the merge channel; the closer
	// goroutine shuts it once every partition has drained.
	var mergeWG sync.WaitGroup
	for p := range layout {
		partIn[p] = make([]int, prefixEnd)
		partOut[p] = make([]int, prefixEnd)
		// Exactly one goroutine per partition feeds the merge channel: the
		// source itself when the prefix is just the scan, the last map
		// stage otherwise.
		mergeWG.Add(1)
		partTallies[p] = make([]*simclock.Tally, prefixEnd)
		pctxs := make([]*ops.Ctx, prefixEnd)
		for i := 0; i < prefixEnd; i++ {
			partTallies[p][i] = simclock.NewTally(start)
			pctxs[i] = root.ForOp(i, partTallies[p][i], ops.StageParallelism(phys[i], e.cfg.Parallelism))
		}
		// local[i] carries stage i's output within this partition; the
		// last prefix stage writes the shared merge channel, which only
		// the closer below may close.
		local := make([]chan batch, prefixEnd)
		for i := 0; i < prefixEnd-1; i++ {
			local[i] = make(chan batch, pipelineDepth)
		}
		local[prefixEnd-1] = chans[prefixEnd-1]

		// Partition source: an independent reader over its slice of the
		// dataset (the whole dataset for a plain scan).
		wg.Add(1)
		go func(p int, out chan<- batch, sctx *ops.Ctx) {
			defer wg.Done()
			if prefixEnd == 1 {
				defer mergeWG.Done()
			} else {
				defer close(out)
			}
			seq := seqBase[p]
			err := func() (err error) {
				defer ops.Recover(&err)
				return scan.Stream(sctx, starts[p], starts[p]+layout[p], size, func(recs []*record.Record) error {
					partOut[p][0] += len(recs)
					note(0, len(recs))
					if !send(out, batch{seq: seq, recs: recs}) {
						return cctx.Err() // sends only fail on cancellation
					}
					seq++
					return nil
				})
			}()
			if err != nil && cctx.Err() == nil {
				fail(0, scan, err)
			}
		}(p, local[0], pctxs[0])

		// Per-partition map stages: streamable operators applied batch by
		// batch, preserving the global sequence tags.
		for i := 1; i < prefixEnd; i++ {
			wg.Add(1)
			go func(pos int, in <-chan batch, out chan<- batch, sctx *ops.Ctx) {
				defer wg.Done()
				if pos == prefixEnd-1 {
					defer mergeWG.Done()
				} else {
					defer close(out)
				}
				op := phys[pos]
				for b := range in {
					outRecs, err := ops.Run(sctx, op, b.recs)
					if err != nil {
						fail(pos, op, err)
						return
					}
					partIn[p][pos] += len(b.recs)
					partOut[p][pos] += len(outRecs)
					note(pos, len(outRecs))
					if !send(out, batch{seq: b.seq, recs: outRecs}) {
						return
					}
				}
			}(i, local[i-1], local[i], pctxs[i])
		}
	}
	go func() {
		mergeWG.Wait()
		close(chans[prefixEnd-1])
	}()

	// Interior stages downstream of the prefix, each with its own clock
	// and resolved worker-pool width.
	tallies := make([]*simclock.Tally, len(phys))
	for i := prefixEnd; i < len(phys); i++ {
		tallies[i] = simclock.NewTally(start)
		wg.Add(1)
		go func(pos int, sctx *ops.Ctx) {
			defer wg.Done()
			defer close(chans[pos])
			op := phys[pos]
			in := chans[pos-1]

			if ops.IsStreamable(op) {
				batches, emitted := 0, 0
				// Re-optimization window bookkeeping: record flow over the
				// first K batches, reported once via rc.post.
				inWindow := rc != nil && rc.inWindow(pos)
				winIn, winOut := 0, 0
				for b := range in {
					// The window's entry stage stamps the swap epoch: its
					// first K outputs are epoch 0, everything after the
					// decision is epoch 1. Interior window stages propagate
					// the incoming epoch and pick their operator by it.
					epoch := b.epoch
					if inWindow && pos == rc.lo && batches >= rc.k {
						epoch = 1
					}
					runOp := op
					if inWindow {
						runOp = rc.opFor(pos, epoch, op)
					}
					out, err := ops.Run(sctx, runOp, b.recs)
					if err != nil {
						fail(pos, runOp, err)
						return
					}
					batches++
					emitted += len(out)
					e.progress(pos, runOp, batches, emitted)
					if !send(chans[pos], batch{seq: b.seq, recs: out, epoch: epoch}) {
						return
					}
					if inWindow && batches <= rc.k {
						winIn += len(b.recs)
						winOut += len(out)
						if batches == rc.k {
							rc.post(pos, winIn, winOut)
							// Only the entry stage parks for the decision;
							// downstream window stages keep draining so every
							// stage can reach its K-th batch (deadlock-free).
							if pos == rc.lo && !rc.waitDecided(cctx) {
								return
							}
						}
					}
				}
				return
			}

			// Blocking operator: a barrier. Materialize the full input in
			// sequence order, execute once, re-chunk with fresh tags.
			var gathered []batch
			for b := range in {
				gathered = append(gathered, b)
			}
			if cctx.Err() != nil {
				return
			}
			// The seq-tag protocol (not arrival order) is the ordering
			// contract. With a single upstream producer this sort is a
			// no-op; when the partitioned prefix merges here, partition
			// outputs interleave freely and the sort restores exact
			// dataset order via the precomputed global tags.
			sort.Slice(gathered, func(a, b int) bool { return gathered[a].seq < gathered[b].seq })
			var all []*record.Record
			for _, b := range gathered {
				all = append(all, b.recs...)
			}
			out, err := ops.Run(sctx, op, all)
			if err != nil {
				fail(pos, op, err)
				return
			}
			// Re-chunk with fresh tags; empty output still sends one empty
			// batch so every downstream stage executes and records stats.
			for seq, off := 0, 0; ; seq, off = seq+1, off+size {
				end := min(off+size, len(out))
				e.progress(pos, op, seq+1, end)
				if !send(chans[pos], batch{seq: seq, recs: out[off:end:end]}) || end == len(out) {
					return
				}
			}
		}(i, root.ForOp(i, tallies[i], ops.StageParallelism(phys[i], e.cfg.Parallelism)))
	}

	// Sink: reassemble the last stage's batches in sequence order.
	var outBatches []batch
	for b := range chans[len(phys)-1] {
		outBatches = append(outBatches, b)
	}
	wg.Wait()
	// Caller cancellation wins over any secondary stage error it induced:
	// stages observing the canceled context may surface it as an operator
	// failure, but the run's story is "canceled", not "failed".
	if err := parent.Err(); err != nil {
		return nil, fmt.Errorf("exec: run canceled: %w", err)
	}
	if failErr != nil {
		return nil, failErr
	}
	// As above: with one producer FIFO delivery already orders the
	// batches; when the partitioned prefix reaches the sink directly the
	// sort is what merges interleaved partition outputs back into exact
	// dataset order.
	sort.Slice(outBatches, func(a, b int) bool { return outBatches[a].seq < outBatches[b].seq })
	var recs []*record.Record
	for _, b := range outBatches {
		recs = append(recs, b.recs...)
	}

	// Fold the stage clocks into the run's wall-clock (overlapping
	// streamable segments cost their maximum, barriers add in full, and a
	// one-batch run adds every stage) and advance the shared clock once.
	// Elapsed is the fold itself, not a shared-clock diff: retry backoff
	// is already inside each response's Latency (and therefore inside the
	// tallies), while the retry client additionally sleeps backoff on the
	// shared clock — a diff would count it twice whenever FailureRate > 0.
	// Prefix stages ran once per partition, concurrently: the stage's
	// contribution to the fold is the slowest partition's clock, which is
	// how fan-out shortens the modeled wall-clock.
	stageTimes := make([]time.Duration, len(phys))
	for i := range phys {
		if i >= prefixEnd {
			stageTimes[i] = tallies[i].Total()
			continue
		}
		for p := range partTallies {
			stageTimes[i] = max(stageTimes[i], partTallies[p][i].Total())
		}
	}
	wall, shape := ops.PipelinedWallTime(phys, stageTimes), "pipelined"
	if oneBatch {
		wall, shape = 0, "sequential"
		for _, t := range stageTimes {
			wall += t
		}
	}
	e.clock.Sleep(wall)
	cost := root.Stats.TotalCost()
	tr := buildRunTrace(shape, root.Stats, wall, cost, stageTimes)
	if len(layout) > 1 {
		attachPartitionSpans(tr, prefixEnd, partIn, partOut, partTallies)
	}
	return &Result{
		Records: recs,
		Stats:   root.Stats,
		Elapsed: wall,
		// Cost comes from the run's own stats, not a shared-service diff,
		// so concurrent runs over one Executor account independently.
		CostUSD: cost,
		Trace:   tr,
	}, nil
}
