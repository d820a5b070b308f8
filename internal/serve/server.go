package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/llm"
	"repro/internal/lru"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/internal/trace"
	"repro/pz"
)

// Config configures a Server.
type Config struct {
	// Context is the shared Palimpzest engine every query runs on. Its
	// Parallelism, caching, and sampling settings apply to all tenants.
	Context *pz.Context
	// MaxInflight bounds concurrently executing queries (default 8).
	MaxInflight int
	// MaxQueue bounds queries waiting for an execution slot; beyond it the
	// server sheds load with 429 (default 16).
	MaxQueue int
	// PlanCacheSize bounds the cross-query plan cache (default 128).
	PlanCacheSize int
	// DefaultBudgetUSD caps every tenant's cumulative simulated spend
	// (0 = unlimited); TenantBudgets overrides per tenant.
	DefaultBudgetUSD float64
	TenantBudgets    map[string]float64
	// OnJobStart, when set, runs after a job acquires its execution slot
	// and before it executes — a test seam for holding jobs in flight.
	// The context is the job's run context (canceled on abort).
	OnJobStart func(ctx context.Context, job *Job)
	// Cluster, when set, is offered every query's plan: a coordinator
	// that scatters per-partition sub-plans across registered workers
	// (see internal/cluster). A query it declines (fan-out below 2,
	// non-partitionable dataset, empty worker pool, no operator a
	// partition can run after the scan) or fails runs the same plan
	// locally, and its trace says why (cluster_declined).
	Cluster Distributor
	// Counters optionally shares a metrics registry with other subsystems
	// (the cluster registry/coordinator), so /metrics reports one merged
	// counter view; nil allocates a private set.
	Counters *metrics.Counters
	// SlowQuerySimSec is the slow-query log threshold in simulated
	// seconds: completed queries at or above it are retained in the
	// bounded ring behind /v1/debug/slowlog. 0 disables the log.
	SlowQuerySimSec float64
}

const (
	// traceRingSize bounds the ring of recent query traces behind
	// /v1/debug/traces.
	traceRingSize = 64
	// slowLogSize bounds the slow-query ring.
	slowLogSize = 128
	// maxFinishedJobs bounds the finished jobs the server remembers for
	// /v1/jobs; past it the oldest finished job is forgotten and its ID
	// answers 404. Queued and running jobs are never forgotten.
	maxFinishedJobs = 512
)

// Job statuses.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Job is one submitted query's lifecycle record.
type Job struct {
	mu     sync.Mutex
	id     string
	seq    int
	tenant string
	status string
	errMsg string
	result *QueryResult
	trace  *trace.Span
	cancel context.CancelFunc
	done   chan struct{}
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// Tenant returns the submitting tenant.
func (j *Job) Tenant() string { return j.tenant }

// Status returns the job's current lifecycle state.
func (j *Job) Status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Cancel aborts the job's run context (no-op once finished).
func (j *Job) Cancel() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Done is closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

func (j *Job) setRunning(cancel context.CancelFunc) {
	j.mu.Lock()
	j.status = StatusRunning
	j.cancel = cancel
	j.mu.Unlock()
}

func (j *Job) finish(status string, result *QueryResult, errMsg string) {
	j.mu.Lock()
	j.status = status
	j.result = result
	j.errMsg = errMsg
	j.cancel = nil
	j.mu.Unlock()
	close(j.done)
}

func (j *Job) setTrace(t *trace.Span) {
	j.mu.Lock()
	j.trace = t
	j.mu.Unlock()
}

// Trace returns the job's query trace (nil until the job completes a
// traced execution).
func (j *Job) Trace() *trace.Span {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// QueryResult is the wire form of a completed query.
type QueryResult struct {
	// Records is the deterministic JSON rendering of the output records
	// (see RecordsJSON) — byte-identical to a direct Context.Execute of
	// the same spec. The response writer splices it in as it is, which
	// takes RecordsJSON's compact, HTML-escaped bytes.
	Records json.RawMessage `json:"records"`
	// Count is len(Records).
	Count int `json:"count"`
	// Plan renders the chosen physical plan.
	Plan string `json:"plan"`
	// PlanCached reports whether optimization was skipped via the plan
	// cache.
	PlanCached bool `json:"plan_cached"`
	// Candidates is how many plans the optimizer considered (the cached
	// count on plan-cache hits).
	Candidates int `json:"candidates"`
	// Policy describes the selecting policy.
	Policy string `json:"policy"`
	// ElapsedSimMS is the simulated runtime in milliseconds.
	ElapsedSimMS int64 `json:"elapsed_sim_ms"`
	// CostUSD is the query's simulated LLM cost.
	CostUSD float64 `json:"cost_usd"`
}

// JobView is the wire form of a job.
type JobView struct {
	ID     string       `json:"id"`
	Tenant string       `json:"tenant"`
	Status string       `json:"status"`
	Error  string       `json:"error,omitempty"`
	Result *QueryResult `json:"result,omitempty"`
}

func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{ID: j.id, Tenant: j.tenant, Status: j.status, Error: j.errMsg, Result: j.result}
}

// Server is the concurrent query-serving subsystem: admission control in
// front of a scheduler that runs declarative pipeline specs over one
// shared pz.Context, with a cross-query plan cache and per-tenant
// accounting.
type Server struct {
	cfg      Config
	pzctx    *pz.Context
	adm      *Admission
	plans    *PlanCache
	tenants  *Accounting
	counters *metrics.Counters
	hists    *metrics.Histograms
	traces   *trace.Ring[*trace.Document]
	slowlog  *trace.Ring[SlowQueryEntry]

	mu   sync.Mutex
	jobs map[string]*Job
	seq  int
	// finished lists the IDs of the finished jobs still in jobs, oldest
	// first.
	finished []string
	// clusterCost sums what distributed queries spent off the server's
	// engine: their cost less the calibration the engine paid.
	clusterCost float64

	base     context.Context
	shutdown context.CancelFunc
	wg       sync.WaitGroup
}

// New builds a Server over a shared pz.Context.
func New(cfg Config) (*Server, error) {
	if cfg.Context == nil {
		return nil, fmt.Errorf("serve: config needs a pz.Context")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 8
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 16
	}
	if cfg.PlanCacheSize <= 0 {
		cfg.PlanCacheSize = 128
	}
	if cfg.Counters == nil {
		cfg.Counters = metrics.NewCounters()
	}
	if cfg.SlowQuerySimSec < 0 {
		return nil, fmt.Errorf("serve: negative slow-query threshold %v", cfg.SlowQuerySimSec)
	}
	base, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		pzctx:    cfg.Context,
		adm:      NewAdmission(cfg.MaxInflight, cfg.MaxQueue),
		plans:    lru.New[string, CachedPlan](cfg.PlanCacheSize, nil),
		tenants:  NewAccounting(cfg.DefaultBudgetUSD, cfg.TenantBudgets),
		counters: cfg.Counters,
		hists:    metrics.NewHistograms(),
		traces:   trace.NewRing[*trace.Document](traceRingSize),
		slowlog:  trace.NewRing[SlowQueryEntry](slowLogSize),
		jobs:     map[string]*Job{},
		base:     base,
		shutdown: cancel,
	}, nil
}

// Close cancels every running job and waits for them to settle.
func (s *Server) Close() {
	s.shutdown()
	s.wg.Wait()
}

// PlanCache exposes plan-cache statistics (tests, metrics).
func (s *Server) PlanCache() *PlanCache { return s.plans }

// Counters exposes the serving counters (tests, metrics).
func (s *Server) Counters() *metrics.Counters { return s.counters }

// Handler returns the HTTP API:
//
//	POST /v1/query            submit a pipeline spec (async; ?wait=1 blocks)
//	GET  /v1/jobs             list jobs
//	GET  /v1/jobs/{id}        job status and result
//	GET  /v1/jobs/{id}/trace  the job's query trace (span tree)
//	POST /v1/jobs/{id}/cancel abort a job
//	GET  /v1/debug/traces     ring of recent query traces
//	GET  /v1/debug/slowlog    slow-query log (see Config.SlowQuerySimSec)
//	GET  /metrics             Prometheus text exposition;
//	                          ?format=json keeps the JSON snapshot
//	GET  /healthz             liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/debug/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/debug/slowlog", s.handleSlowlog)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// MaxRequestBytes bounds a JSON request body. Specs name their datasets
// rather than inline them, so real requests are far smaller.
const MaxRequestBytes = 1 << 20

// DecodeRequest decodes r's JSON body into v, reading at most
// MaxRequestBytes of it. On failure it returns the HTTP status to answer
// with: 413 for an oversized body, 400 otherwise.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

// Connection timeouts of every daemon's HTTP server: a client gets
// ReadHeaderTimeout to send its request headers, and a keep-alive
// connection IdleTimeout between requests. There is no write timeout:
// ?wait=1 queries and streamed partitions legitimately run long.
const (
	ReadHeaderTimeout = 5 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server a daemon listens with on addr.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// ShutdownTimeout is how long a daemon's shutdown lets in-flight
// requests drain before it closes their connections.
const ShutdownTimeout = 10 * time.Second

// Shutdown stops a daemon's server: it stops accepting connections,
// waits up to ShutdownTimeout for in-flight requests to finish, then
// closes every connection still open. A handler that never returns
// cannot hold it longer; the error then says the deadline passed.
func Shutdown(hs *http.Server) error { return shutdown(hs, ShutdownTimeout) }

func shutdown(hs *http.Server, drain time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := hs.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		_ = hs.Close() // the listener is closed already; err says what happened
	}
	return err
}

// tenantOf resolves the requesting tenant from the X-PZ-Tenant header.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-PZ-Tenant"); t != "" {
		return t
	}
	return "default"
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.counters.Inc("queries_total")
	var spec Spec
	if code, err := DecodeRequest(w, r, &spec); err != nil {
		writeError(w, code, fmt.Errorf("parse spec: %w", err))
		return
	}
	// Validate the pipeline and policy before consuming any capacity.
	ds, err := spec.Build(s.pzctx)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	policy, err := spec.ParsePolicy()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tenant := tenantOf(r)
	if err := s.tenants.Admit(tenant); err != nil {
		s.counters.Inc("rejected_budget")
		writeError(w, http.StatusPaymentRequired, err)
		return
	}
	ticket, err := s.adm.Enter()
	if err != nil {
		s.counters.Inc("rejected_overload")
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	job := s.newJob(tenant)

	if r.URL.Query().Get("wait") != "" {
		// Synchronous: the client's connection drives cancellation.
		s.runJob(r.Context(), job, &spec, ds, policy, ticket)
		view := job.view()
		code := http.StatusOK
		if view.Status == StatusFailed {
			code = http.StatusInternalServerError
		}
		writeJSON(w, code, view)
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runJob(s.base, job, &spec, ds, policy, ticket)
	}()
	writeJSON(w, http.StatusAccepted, job.view())
}

func (s *Server) newJob(tenant string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	job := &Job{
		id:     fmt.Sprintf("job-%06d", s.seq),
		seq:    s.seq,
		tenant: tenant,
		status: StatusQueued,
		done:   make(chan struct{}),
	}
	s.jobs[job.id] = job
	return job
}

// retire records a finished job, forgetting the oldest finished jobs past
// maxFinishedJobs.
func (s *Server) retire(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, job.id)
	for len(s.finished) > maxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// runJob drives one admitted query to a terminal state: wait for an
// execution slot, resolve the plan once (plan cache, else optimize),
// offer it to the cluster coordinator, otherwise run it locally with
// cancellation, and settle accounting. parent is the job's cancellation
// scope (the request context for synchronous queries, the server's base
// context otherwise).
func (s *Server) runJob(parent context.Context, job *Job, spec *Spec, ds *pz.Dataset, policy pz.Policy, ticket *Ticket) {
	defer s.retire(job)
	defer ticket.Release()
	// The engines return an operator's panic as its query's error; this
	// catches the rest (a source, the optimizer), so that one query's
	// panic fails that job rather than the process and every tenant.
	defer func() {
		if v := recover(); v != nil {
			select {
			case <-job.done:
			default:
				s.counters.Inc("queries_failed")
				job.finish(StatusFailed, nil, fmt.Sprintf("panic: %v", v))
			}
		}
	}()
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	if err := ticket.Await(ctx); err != nil {
		s.counters.Inc("queries_canceled")
		job.finish(StatusCanceled, nil, err.Error())
		return
	}
	job.setRunning(cancel)
	if s.cfg.OnJobStart != nil {
		s.cfg.OnJobStart(ctx, job)
	}
	fail := func(err error) {
		if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.counters.Inc("queries_canceled")
			job.finish(StatusCanceled, nil, err.Error())
			return
		}
		s.counters.Inc("queries_failed")
		job.finish(StatusFailed, nil, err.Error())
	}

	// Fingerprint with the dataset's resolved options (partition fan-out
	// included) so queries optimized for different fan-outs never share a
	// cached plan.
	opts := s.pzctx.OptimizerOptionsFor(ds)
	fp := optimizer.Fingerprint(ds.Chain(), policy, opts)
	entry, cached := s.plans.Get(fp)
	candidates := entry.Candidates
	var opt *exec.Optimized
	if cached {
		s.counters.Inc("plan_cache_hits")
		opt = &exec.Optimized{Plan: entry.Plan}
	} else {
		s.counters.Inc("plan_cache_misses")
		var err error
		if opt, err = s.pzctx.Executor().Optimize(ctx, ds.Chain(), policy, opts); err != nil {
			fail(err)
			return
		}
		candidates = len(opt.Candidates)
	}
	result := QueryResult{PlanCached: cached, Candidates: candidates, Policy: policy.Describe()}

	var declined string
	if s.cfg.Cluster != nil {
		dres, reason, err := s.cfg.Cluster.Scatter(ctx, spec, opt, opts.Partitions)
		switch {
		case err != nil && ctx.Err() != nil:
			fail(err)
			return
		case err != nil:
			// A distributed failure is not a query failure: the local
			// engine owns the same data.
			s.counters.Inc("cluster_query_errors")
			declined = "error"
		case reason != "":
			declined = reason
		default:
			s.plans.Put(fp, CachedPlan{opt.Plan, candidates})
			s.mu.Lock()
			s.clusterCost += dres.CostUSD - opt.CostUSD
			s.mu.Unlock()
			result.Plan, result.ElapsedSimMS, result.CostUSD = dres.Plan, dres.Elapsed.Milliseconds(), dres.CostUSD
			s.complete(job, dres.Records, dres.Trace, result)
			return
		}
	}
	res, err := s.pzctx.Executor().ExecutePlan(ctx, opt, result.Policy)
	if err != nil {
		fail(err)
		return
	}
	if declined != "" {
		res.Trace.SetAttr("cluster_declined", declined)
	}
	// Keep the cached plan converging: every re-optimizing run folds its
	// observed statistics back into the cache entry.
	s.plans.Put(fp, CachedPlan{cachedPlan(res), candidates})
	result.Plan, result.ElapsedSimMS, result.CostUSD = res.Plan.String(), res.Elapsed.Milliseconds(), res.CostUSD
	s.complete(job, res.Records, res.Trace, result)
}

// complete settles a query that ran, locally or on the cluster: it
// charges the tenant, renders the records into result, records the run
// into the observability surfaces — latency/cost histograms, the
// recent-trace ring, the job's own trace, and (past the configured
// threshold) the slow-query log — and finishes the job done.
func (s *Server) complete(job *Job, recs []*pz.Record, tr *trace.Span, result QueryResult) {
	s.tenants.Charge(job.tenant, result.CostUSD)
	records, err := RecordsJSON(recs)
	if err != nil {
		s.counters.Inc("queries_failed")
		job.finish(StatusFailed, nil, err.Error())
		return
	}
	result.Records, result.Count = records, len(recs)
	s.counters.Inc("queries_done")
	simSec := float64(result.ElapsedSimMS) / 1000
	s.hists.Observe("query_sim_seconds", metrics.LatencyBuckets, simSec)
	s.hists.Observe("query_cost_usd", metrics.CostBuckets, result.CostUSD)
	if tr != nil {
		job.setTrace(tr)
		accumulateCascadeCounters(s.counters, tr)
		accumulateReoptCounters(s.counters, tr)
		s.traces.Push(&trace.Document{
			SchemaVersion: trace.SchemaVersion,
			JobID:         job.ID(),
			Tenant:        job.Tenant(),
			Trace:         tr,
		})
	}
	if s.cfg.SlowQuerySimSec > 0 && simSec >= s.cfg.SlowQuerySimSec {
		s.counters.Inc("slow_queries")
		s.slowlog.Push(SlowQueryEntry{
			JobID:        job.ID(),
			Tenant:       job.Tenant(),
			ElapsedSimMS: result.ElapsedSimMS,
			CostUSD:      result.CostUSD,
			Plan:         result.Plan,
		})
	}
	job.finish(StatusDone, &result, "")
}

// accumulateCascadeCounters folds a completed query's cascade tier spans
// into the cascade_* counter family: per-tier record and call volume, and
// the headline cascade_big_model_calls_saved — records the prefilter and
// verify tiers settled without the resolve model, i.e. big-model calls a
// plain llm-filter plan would have made that the cascade skipped.
func accumulateCascadeCounters(c *metrics.Counters, tr *trace.Span) {
	tiers := tr.FindAll(trace.KindTier)
	if len(tiers) == 0 {
		return
	}
	c.Inc("cascade_queries")
	for _, tier := range tiers {
		switch tier.Name {
		case ops.TierPrefilter:
			c.Add("cascade_prefilter_in", int64(tier.RecordsIn))
			c.Add("cascade_prefilter_dropped", int64(tier.RecordsIn-tier.RecordsOut))
			c.Add("cascade_big_model_calls_saved", int64(tier.RecordsIn))
		case ops.TierVerify:
			c.Add("cascade_verify_calls", int64(tier.LLMCalls))
		case ops.TierResolve:
			c.Add("cascade_resolve_calls", int64(tier.LLMCalls))
			c.Add("cascade_big_model_calls_saved", -int64(tier.LLMCalls))
		}
	}
}

// cachedPlan picks the plan the cross-query cache should keep for a
// completed run: the re-optimization-corrected plan when the run produced
// one — so repeat queries start from observed statistics (and from the
// hot-swapped filter ordering, when one was adopted) — otherwise the
// optimizer's original choice.
func cachedPlan(res *exec.Result) *pz.Plan {
	if res.Reopt != nil && res.Reopt.CorrectedPlan != nil {
		return res.Reopt.CorrectedPlan
	}
	return res.Plan
}

// accumulateReoptCounters folds a completed query's re-optimization spans
// into the reopt_* counter family: checks performed, divergence triggers,
// and adopted mid-flight plan swaps.
func accumulateReoptCounters(c *metrics.Counters, tr *trace.Span) {
	for _, sp := range tr.FindAll(trace.KindReopt) {
		c.Inc("reopt_checks")
		if sp.Attrs["triggered"] == "true" {
			c.Inc("reopt_triggered")
		}
		if sp.Attrs["swapped"] == "true" {
			c.Inc("reopt_swaps")
		}
	}
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	job := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if job == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", r.PathValue("id")))
	}
	return job
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if job := s.lookupJob(w, r); job != nil {
		writeJSON(w, http.StatusOK, job.view())
	}
}

// SlowQueryEntry is one slow-query log line: which job, whose query,
// and where the simulated time and money went.
type SlowQueryEntry struct {
	JobID        string  `json:"job_id"`
	Tenant       string  `json:"tenant"`
	ElapsedSimMS int64   `json:"elapsed_sim_ms"`
	CostUSD      float64 `json:"cost_usd"`
	Plan         string  `json:"plan"`
}

// handleJobTrace serves a completed job's span tree as a versioned
// trace document. 404 for unknown jobs; 409 while the job has not yet
// produced a trace (still queued/running, or finished without one).
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	job := s.lookupJob(w, r)
	if job == nil {
		return
	}
	tr := job.Trace()
	if tr == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("serve: job %s has no trace (status %s)", job.ID(), job.Status()))
		return
	}
	writeJSON(w, http.StatusOK, &trace.Document{
		SchemaVersion: trace.SchemaVersion,
		JobID:         job.ID(),
		Tenant:        job.Tenant(),
		Trace:         tr,
	})
}

// handleTraces serves the ring of recent query traces, oldest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.traces.Items()})
}

// handleSlowlog serves the bounded slow-query log, oldest first.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_sim_sec": s.cfg.SlowQuerySimSec,
		"entries":           s.slowlog.Items(),
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.lookupJob(w, r)
	if job == nil {
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusOK, job.view())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	// Submission order, which job IDs only spell until they outgrow
	// their zero padding.
	slices.SortFunc(jobs, func(a, b *Job) int { return a.seq - b.seq })
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	writeJSON(w, http.StatusOK, views)
}

// Metrics is the /metrics?format=json payload.
type Metrics struct {
	Counters   map[string]int64                 `json:"counters"`
	Histograms map[string]metrics.HistogramView `json:"histograms,omitempty"`
	PlanCache  PlanCacheStats                   `json:"plan_cache"`
	LLMCache   *llm.CacheStats                  `json:"llm_cache,omitempty"`
	Admission  AdmissionStats                   `json:"admission"`
	Tenants    map[string]TenantUsage           `json:"tenants"`
	TotalCost  float64                          `json:"total_cost_usd"`
	Cluster    *ClusterStats                    `json:"cluster,omitempty"`
}

// ClusterStats is the cluster section of /metrics: the live worker pool.
// The scatter/retry/straggler totals live in Counters (cluster_*), which
// the coordinator shares with the server.
type ClusterStats struct {
	Workers []WorkerView `json:"workers"`
}

// AdmissionStats is the gate's live occupancy.
type AdmissionStats struct {
	Running     int `json:"running"`
	Queued      int `json:"queued"`
	MaxInflight int `json:"max_inflight"`
	MaxQueue    int `json:"max_queue"`
}

// totalCost is what the server has spent on LLM calls: its engine's own
// total and what distributed queries spent on the cluster.
func (s *Server) totalCost() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pzctx.TotalCost() + s.clusterCost
}

// handleMetrics serves the Prometheus text exposition by default and
// the structured JSON snapshot under ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	planStats := s.plans.Stats()
	if r.URL.Query().Get("format") == "json" {
		m := Metrics{
			Counters:   s.counters.Snapshot(),
			Histograms: s.hists.Snapshot(),
			PlanCache:  PlanCacheStats{planStats.Hits, planStats.Misses, planStats.Size, planStats.Budget},
			Admission: AdmissionStats{
				Running: s.adm.Running(), Queued: s.adm.Queued(),
				MaxInflight: s.adm.MaxInflight(), MaxQueue: s.adm.MaxQueue(),
			},
			Tenants:   s.tenants.Snapshot(),
			TotalCost: s.totalCost(),
		}
		if cache := s.pzctx.Executor().Cache(); cache != nil {
			st := cache.Stats()
			m.LLMCache = &st
		}
		if s.cfg.Cluster != nil {
			m.Cluster = &ClusterStats{Workers: s.cfg.Cluster.Workers()}
		}
		writeJSON(w, http.StatusOK, m)
		return
	}
	// Text exposition: counters and histograms from the registries, plus
	// the point-in-time gauges the JSON snapshot derives from subsystems.
	gauges := map[string]float64{
		"admission_running":    float64(s.adm.Running()),
		"admission_queued":     float64(s.adm.Queued()),
		"plan_cache_size":      float64(planStats.Size),
		"total_cost_usd":       s.totalCost(),
		"slow_query_threshold": s.cfg.SlowQuerySimSec,
	}
	if cache := s.pzctx.Executor().Cache(); cache != nil {
		st := cache.Stats()
		gauges["llm_cache_hits"] = float64(st.Hits)
		gauges["llm_cache_misses"] = float64(st.Misses)
		gauges["llm_cache_saved_usd"] = st.SavedUSD
	}
	if s.cfg.Cluster != nil {
		gauges["cluster_workers_live"] = float64(len(s.cfg.Cluster.Workers()))
	}
	w.Header().Set("Content-Type", metrics.PromContentType)
	metrics.RenderProm(w, "pz", s.counters, s.hists, gauges)
}
