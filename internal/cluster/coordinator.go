package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/pz"
)

// Config configures a Coordinator.
type Config struct {
	// Registry is the worker pool (required). The coordinator counts into
	// its metrics registry, so /metrics shows one merged view.
	Registry *Registry
	// Parallelism is the per-operator LLM concurrency for coordinator-side
	// execution: suffix operators and local partition fallback (default 4).
	Parallelism int
	// MaxAttempts bounds remote dispatches per partition; once exhausted
	// the partition executes locally instead of failing the query
	// (default 3).
	MaxAttempts int
	// PartitionTimeout bounds one remote partition attempt (default 60s).
	PartitionTimeout time.Duration
	// StragglerAfter is how long a partition may stay in flight before the
	// coordinator speculatively re-issues it to an idle worker — first
	// result wins, the duplicate is discarded (default 30s; the hard
	// PartitionTimeout still backstops it).
	StragglerAfter time.Duration
}

// Coordinator implements serve.Distributor: given the plan the serving
// layer chose, it splits an indexed NDJSON scan by the corpus partition
// index, scatters the plan's stream prefix across the worker registry as
// serve.Spec sub-plans over byte ranges, gathers the seq-tagged streams,
// merges them in partition order — byte-identical to the sequential
// scan — and runs the rest of the plan locally over the merged records.
type Coordinator struct {
	cfg      Config
	reg      *Registry
	counters *metrics.Counters
	client   *http.Client
	// readers keeps chunkReaders between streams, so that their buffers,
	// which grow to the size of a chunk, grow once. A scatter streams
	// from each worker one partition at a time, so it needs at most one
	// reader per registered worker.
	mu      sync.Mutex
	readers []*chunkReader
}

// NewCoordinator builds a Coordinator over a worker registry.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("cluster: coordinator needs a registry")
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 4
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.PartitionTimeout <= 0 {
		cfg.PartitionTimeout = 60 * time.Second
	}
	if cfg.StragglerAfter <= 0 {
		cfg.StragglerAfter = 30 * time.Second
	}
	return &Coordinator{cfg: cfg, reg: cfg.Registry, counters: cfg.Registry.Counters(), client: &http.Client{}}, nil
}

// Workers implements serve.Distributor.
func (c *Coordinator) Workers() []serve.WorkerView { return c.reg.Views() }

// scatterable is how many leading plan operators a partition can run:
// the plan's stream prefix (ops.StreamPrefix), cut at the first operator
// a worker cannot rebuild, meaning its ID is not among its logical
// operator's own physical options. A worker re-derives its sub-plan from
// the spec, so an operator priced only at the coordinator — a cascade
// filter, whose thresholds come from a calibration sample — exists
// nowhere else.
func scatterable(plan *pz.Plan) int {
	end := ops.StreamPrefix(plan.Ops)
	k := 1
	for k < end && slices.ContainsFunc(plan.Logical[k].Physical(), func(p ops.Physical) bool {
		return p.ID() == plan.Ops[k].ID()
	}) {
		k++
	}
	return k
}

// TryExecute builds spec on pzctx, optimizes it with the options local
// execution resolves and scatters the plan: Scatter for a caller that
// has no plan yet. ok=false with a nil error means Scatter declined.
func (c *Coordinator) TryExecute(ctx context.Context, pzctx *pz.Context, spec *serve.Spec, fanout int) (*serve.DistResult, bool, error) {
	ds, err := spec.Build(pzctx)
	if err != nil {
		return nil, false, err
	}
	policy, err := spec.ParsePolicy()
	if err != nil {
		return nil, false, err
	}
	opt, err := pzctx.Executor().Optimize(ctx, ds.Chain(), policy, pzctx.OptimizerOptionsFor(ds))
	if err != nil {
		return nil, false, err
	}
	dres, reason, err := c.Scatter(ctx, spec, opt, fanout)
	return dres, reason == "" && err == nil, err
}

// Scatter implements serve.Distributor. It places opt's plan and pins
// the prefix's physical operators onto every partition request: a worker
// picking a different model over its local statistics would break
// byte-identity, because model noise is keyed on model + record content.
// It declines, before anything is spent, a fan-out or partition index
// below 2, an empty worker pool, a scan that is not an indexed NDJSON
// corpus, or a plan with no scatterable operator after its scan.
func (c *Coordinator) Scatter(ctx context.Context, spec *serve.Spec, opt *exec.Optimized, fanout int) (*serve.DistResult, string, error) {
	if fanout < 2 {
		return nil, "one_partition", nil
	}
	if c.reg.Len() == 0 {
		c.counters.Inc("cluster_queries_local_fallback")
		return nil, "no_workers", nil
	}
	plan := opt.Plan
	var nsrc *dataset.NDJSONSource
	if scan, ok := plan.Logical[0].(*ops.Scan); ok {
		nsrc, _ = scan.Source.(*dataset.NDJSONSource)
	}
	if nsrc == nil {
		return nil, "not_ndjson", nil
	}
	ranges := nsrc.PartitionRanges(fanout)
	if len(ranges) < 2 {
		return nil, "one_partition", nil
	}
	k := scatterable(plan)
	if k == 1 {
		c.counters.Inc("cluster_queries_not_streamable")
		return nil, "not_streamable", nil
	}
	// The sub-plan spec follows the plan's logical order, which filter
	// reordering may have changed from the query's.
	prefixSpec, err := serve.FromChain(plan.Logical[:k], spec.Policy, spec.PolicyParam)
	if err != nil {
		return nil, "", err
	}
	prefixSchema, err := ops.ValidatePlan(plan.Logical[:k])
	if err != nil {
		return nil, "", err
	}
	name := prefixSpec.Dataset.Name

	pool := max(c.reg.Len(), 1)
	done, execBy, err := c.scatter(ctx, prefixSpec, PlanSignature(plan)[:k], ranges, prefixSchema, nsrc.Path())
	if err != nil {
		return nil, "", err
	}

	// Merge in partition order: each partition's records are already in
	// dataset order, and partitions tile the corpus contiguously, so
	// concatenation by ordinal reproduces the sequential scan exactly.
	// Each gathered partition becomes a partition span embedding the
	// executing side's own trace (re-rooted as a worker span), so the
	// coordinator trace explains the whole cluster run.
	var merged []*record.Record
	var cost float64
	var totalDocs int
	partElapsed := make([]time.Duration, len(ranges))
	workers := map[string]bool{}
	scatterSpan := &trace.Span{Kind: trace.KindScatter, Name: "scatter"}
	for part := range ranges {
		res := done[part]
		merged = append(merged, res.Records...)
		cost += res.CostUSD
		totalDocs += ranges[part].Docs
		partElapsed[part] = res.Elapsed
		if execBy[part] != "local" {
			workers[execBy[part]] = true
		}
		pspan := &trace.Span{
			Kind:        trace.KindPartition,
			Name:        fmt.Sprintf("partition %d", part),
			Partition:   trace.Ordinal(part),
			Worker:      execBy[part],
			RecordsIn:   ranges[part].Docs,
			RecordsOut:  len(res.Records),
			Selectivity: trace.Selectivity(ranges[part].Docs, len(res.Records)),
			SimMS:       res.Elapsed.Milliseconds(),
			CostUSD:     res.CostUSD,
		}
		if res.Trace != nil {
			wt := res.Trace
			wt.Kind = trace.KindWorker
			wt.Worker = execBy[part]
			pspan.Add(wt)
		}
		scatterSpan.Add(pspan)
	}
	elapsed := scatterElapsed(partElapsed, pool)
	scatterSpan.RecordsIn = totalDocs
	scatterSpan.RecordsOut = len(merged)
	scatterSpan.Selectivity = trace.Selectivity(totalDocs, len(merged))
	scatterSpan.SimMS = elapsed.Milliseconds()
	scatterSpan.CostUSD = cost

	root := &trace.Span{Kind: trace.KindQuery, Name: "cluster-scatter", RecordsIn: totalDocs}
	root.Add(scatterSpan)
	cost += opt.CostUSD
	elapsed += opt.Elapsed

	records := merged
	suffix := plan.Ops[k:]
	if len(suffix) > 0 {
		sres, err := c.runSuffix(ctx, name, prefixSchema, merged, suffix)
		if err != nil {
			return nil, "", err
		}
		records = sres.Records
		cost += sres.CostUSD
		elapsed += sres.Elapsed
		suffixSpan := sres.Trace
		if suffixSpan == nil {
			suffixSpan = &trace.Span{}
		}
		suffixSpan.Kind = trace.KindSuffix
		suffixSpan.Name = "suffix"
		suffixSpan.RecordsIn = len(merged)
		suffixSpan.RecordsOut = len(records)
		root.Add(suffixSpan)
	}
	root.RecordsOut = len(records)
	root.Selectivity = trace.Selectivity(totalDocs, len(records))
	root.SimMS = elapsed.Milliseconds()
	root.CostUSD = cost
	root.SetAttr("partitions", fmt.Sprint(len(ranges)))
	root.SetAttr("workers", fmt.Sprint(len(workers)))
	opt.Stamp(root)
	c.counters.Inc("cluster_queries_distributed")
	return &serve.DistResult{
		Records: records,
		Plan: fmt.Sprintf("cluster-scatter(%s: %d partitions over %d workers) -> %d prefix + %d suffix ops",
			name, len(ranges), len(workers), k-1, len(suffix)),
		Elapsed:    elapsed,
		CostUSD:    cost,
		Workers:    len(workers),
		Partitions: len(ranges),
		Trace:      root,
	}, "", nil
}

// scatterElapsed is the cluster clock model for the scatter phase: W
// executors work through partitions serially and in parallel with each
// other, each partition in order going to the least-loaded of pool
// executors, and the phase costs the largest load. It is a function of
// the partitions' own sim times and the pool size alone, not of which
// worker happened to run which partition, so the same query reports the
// same sim time on every run.
func scatterElapsed(parts []time.Duration, pool int) time.Duration {
	loads := make([]time.Duration, pool)
	for _, d := range parts {
		loads[slices.Index(loads, slices.Min(loads))] += d
	}
	return slices.Max(loads)
}

// runSuffix runs the plan's operators after the scattered prefix over
// the merged records: an in-memory scan under the dataset's name feeds
// them on a dedicated executor at the coordinator's parallelism.
func (c *Coordinator) runSuffix(ctx context.Context, name string, s *schema.Schema,
	merged []*record.Record, suffix []ops.Physical) (*exec.Result, error) {
	e, err := exec.NewExecutor(exec.Config{Parallelism: c.cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	src, err := dataset.NewMemSource(name, s, merged)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, append([]ops.Physical{&ops.ScanExec{Source: src}}, suffix...))
}

// attemptOutcome is one finished partition attempt (remote or local).
type attemptOutcome struct {
	part int
	exec string // worker name; "" for a local attempt
	res  *PartitionResult
	err  error
}

// scatter drives the partition schedule to completion: dispatch at most
// one in-flight partition per worker (plus at most one local execution),
// retry failed attempts on other workers up to MaxAttempts before
// forcing them local, speculatively re-issue stragglers, and fall back
// to local execution whenever the healthy pool is empty. Returns the
// per-partition results and which executor produced each.
func (c *Coordinator) scatter(ctx context.Context, prefixSpec *serve.Spec, planSig []string, ranges []corpus.Partition,
	prefixSchema *schema.Schema, path string) (map[int]*PartitionResult, map[int]string, error) {
	scatterCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	queue := make([]int, len(ranges))
	queued := map[int]bool{}
	for i := range ranges {
		queue[i] = i
		queued[i] = true
	}
	attempts := map[int]int{}
	inflight := map[int]int{}
	started := map[int]time.Time{}
	reissued := map[int]bool{}
	forceLocal := map[int]bool{}
	busy := map[string]bool{}
	localBusy := false
	done := map[int]*PartitionResult{}
	execBy := map[int]string{}
	// Buffered so late attempts (speculative losers, canceled stragglers)
	// can always deliver and exit after scatter returns.
	results := make(chan attemptOutcome, len(ranges)*(c.cfg.MaxAttempts+2))

	request := func(part int) *PartitionRequest {
		return &PartitionRequest{Spec: *prefixSpec, PlanSig: planSig, Partition: part,
			Offset: ranges[part].Offset, Docs: ranges[part].Docs}
	}
	dispatchRemote := func(part int, w WorkerRef) {
		busy[w.Name] = true
		inflight[part]++
		if _, ok := started[part]; !ok {
			started[part] = time.Now()
		}
		attempts[part]++
		if attempts[part] == 1 {
			c.counters.Inc("cluster_partitions_scattered")
		} else {
			c.counters.Inc("cluster_partitions_rescattered")
		}
		go func() {
			res, err := c.remote(scatterCtx, w, request(part), prefixSchema)
			results <- attemptOutcome{part: part, exec: w.Name, res: res, err: err}
		}()
	}
	dispatchLocal := func(part int) {
		localBusy = true
		inflight[part]++
		if _, ok := started[part]; !ok {
			started[part] = time.Now()
		}
		attempts[part]++
		c.counters.Inc("cluster_partitions_local")
		go func() {
			res, err := ExecutePartition(scatterCtx, request(part), path, c.cfg.Parallelism)
			results <- attemptOutcome{part: part, exec: "", res: res, err: err}
		}()
	}
	// dispatch drains as much of the queue as idle capacity allows.
	dispatch := func() {
		healthy := c.reg.Healthy()
		var idle []WorkerRef
		for _, w := range healthy {
			if !busy[w.Name] {
				idle = append(idle, w)
			}
		}
		var rest []int
		for _, part := range queue {
			switch {
			case done[part] != nil:
				// Completed while waiting (a speculative duplicate lost).
			case len(healthy) == 0 || forceLocal[part]:
				// No pool left, or remote attempts exhausted: run it here.
				if !localBusy {
					dispatchLocal(part)
				} else {
					rest = append(rest, part)
					continue
				}
			case len(idle) > 0:
				dispatchRemote(part, idle[0])
				idle = idle[1:]
			default:
				rest = append(rest, part)
				continue
			}
			delete(queued, part)
		}
		queue = rest
	}
	requeue := func(part int) {
		if !queued[part] && done[part] == nil {
			queue = append(queue, part)
			queued[part] = true
		}
	}

	// NewCoordinator defaults a non-positive StragglerAfter, but a tiny
	// positive value (say 1ns) halves to zero here and time.NewTicker
	// panics on non-positive durations — floor the tick interval instead.
	tickEvery := c.cfg.StragglerAfter / 2
	if tickEvery <= 0 {
		tickEvery = time.Millisecond
	}
	stragglerTick := time.NewTicker(tickEvery)
	defer stragglerTick.Stop()

	for len(done) < len(ranges) {
		dispatch()
		totalInflight := 0
		for _, n := range inflight {
			totalInflight += n
		}
		if totalInflight == 0 && len(queue) == 0 {
			return nil, nil, fmt.Errorf("cluster: scheduler stalled with %d/%d partitions done", len(done), len(ranges))
		}
		if totalInflight == 0 {
			// Queue non-empty but nothing dispatchable and nothing running
			// cannot happen (dispatch always starts a local attempt when the
			// pool is empty), but guard against a busy-wait regardless.
			time.Sleep(time.Millisecond)
			continue
		}
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-stragglerTick.C:
			for part, n := range inflight {
				if n > 0 && done[part] == nil && !reissued[part] &&
					time.Since(started[part]) >= c.cfg.StragglerAfter {
					reissued[part] = true
					c.counters.Inc("cluster_straggler_reissues")
					requeue(part)
				}
			}
		case out := <-results:
			if out.exec != "" {
				busy[out.exec] = false
			} else {
				localBusy = false
			}
			inflight[out.part]--
			if done[out.part] != nil {
				break // first result won already
			}
			if out.err != nil {
				if ctx.Err() != nil {
					return nil, nil, ctx.Err()
				}
				c.counters.Inc("cluster_partition_failures")
				if out.exec == "" {
					// Local execution is the last line of defense; its
					// failures are deterministic (bad range, corrupt file)
					// and fail the query rather than retrying forever.
					return nil, nil, fmt.Errorf("cluster: local execution of partition %d: %w", out.part, out.err)
				}
				c.reg.NoteFailure(out.exec)
				if attempts[out.part] >= c.cfg.MaxAttempts {
					forceLocal[out.part] = true
				}
				requeue(out.part)
				break
			}
			if out.exec != "" {
				c.reg.NoteSuccess(out.exec)
				execBy[out.part] = out.exec
			} else {
				execBy[out.part] = "local"
			}
			done[out.part] = out.res
		}
	}
	return done, execBy, nil
}

// remote performs one partition attempt against a worker: POST the
// request, stream the NDJSON chunk response, and rebuild records under
// the prefix schema. A stream that ends without a done chunk means the
// worker died mid-partition, and a chunk out of sequence (repeated or
// skipped; the worker writes them in order, and its done chunk carries
// the count) means the records cannot be trusted; either error sends
// the scheduler back to re-scatter.
func (c *Coordinator) remote(ctx context.Context, w WorkerRef, preq *PartitionRequest, s *schema.Schema) (*PartitionResult, error) {
	body, err := json.Marshal(preq)
	if err != nil {
		return nil, err
	}
	tctx, cancel := context.WithTimeout(ctx, c.cfg.PartitionTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodPost, w.URL+"/v1/partition", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s: %w", w.Name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("cluster: worker %s: status %d: %s", w.Name, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	cr := c.takeReader()
	defer c.keepReader(cr)
	cr.br.Reset(resp.Body)
	var (
		recs []*record.Record
		seq  int
	)
	for {
		line, rerr := cr.next()
		if len(line) > 0 {
			ch, out, err := decodeChunk(&cr.dec, line, s, recs)
			switch {
			case err != nil && rerr == nil:
				return nil, fmt.Errorf("cluster: worker %s: %w", w.Name, err)
			case err != nil:
				// A line cut off where the stream ended: reported below.
			case ch.Error != "":
				return nil, fmt.Errorf("cluster: worker %s partition %d: %s", w.Name, preq.Partition, ch.Error)
			case ch.Seq != seq:
				return nil, fmt.Errorf("cluster: worker %s partition %d: chunk seq %d, want %d", w.Name, preq.Partition, ch.Seq, seq)
			case ch.Done:
				return &PartitionResult{Records: recs,
					Elapsed: time.Duration(ch.ElapsedSimNS), CostUSD: ch.CostUSD, Trace: ch.Trace}, nil
			default:
				recs = out
				seq++
			}
		}
		if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("cluster: worker %s died mid-partition %d (stream truncated)", w.Name, preq.Partition)
		}
		if rerr != nil {
			return nil, fmt.Errorf("cluster: worker %s: %w", w.Name, rerr)
		}
	}
}

// chunkReader reads partition streams line by line and decodes the
// lines, one stream at a time.
type chunkReader struct {
	br *bufio.Reader
	// long holds a line longer than br's buffer.
	long []byte
	dec  corpus.RecordsDecoder
}

// takeReader returns a kept chunkReader, or a new one.
func (c *Coordinator) takeReader() *chunkReader {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.readers); n > 0 {
		cr := c.readers[n-1]
		c.readers = c.readers[:n-1]
		return cr
	}
	return &chunkReader{br: bufio.NewReaderSize(nil, 64<<10)}
}

// keepReader keeps cr for the next stream, up to one reader per
// registered worker.
func (c *Coordinator) keepReader(cr *chunkReader) {
	cr.br.Reset(nil)
	workers := c.reg.Len()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.readers) < workers {
		c.readers = append(c.readers, cr)
	}
}

// next returns the next line without its newline, valid until the
// following call. With a nil error the line was whole; otherwise it is
// what was left, possibly nothing, when the stream ended or failed.
func (cr *chunkReader) next() ([]byte, error) {
	line, err := cr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		cr.long = append(cr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = cr.br.ReadSlice('\n')
			cr.long = append(cr.long, line...)
		}
		line = cr.long
	}
	if err == nil {
		line = line[:len(line)-1]
	}
	return line, err
}
