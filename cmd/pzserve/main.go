// Command pzserve runs Palimpzest as a concurrent query-serving daemon: an
// HTTP/JSON API over one shared pz.Context, with admission control (bounded
// in-flight queries and wait queue, load-shedding with 429), a cross-query
// plan cache that skips re-optimization on repeat queries, and per-tenant
// cost accounting.
//
// Usage:
//
//	pzserve -addr :8077 -dataset papers=./pdfs [-dataset tickets=./corpus.ndjson]
//	        [-parallelism 4] [-partitions 0] [-batch 0] [-sample 0]
//	        [-reopt-after 0]
//	        [-max-inflight 8] [-max-queue 16] [-plan-cache 128]
//	        [-llm-cache=true] [-llm-cache-capacity 4096]
//	        [-budget 0] [-tenant-budget alice=1.50]
//	        [-slow-query-sim-sec 30]
//	        [-cluster] [-worker w1=http://host:8078]
//	        [-health-interval 5s] [-partition-timeout 60s]
//	        [-partition-retries 3] [-straggler-after 30s]
//
// With -cluster (or any static -worker registration) pzserve also acts as
// the coordinator of a scatter/gather cluster (see internal/cluster):
// pzworker daemons register under /v1/workers, and partitioned queries over
// indexed NDJSON datasets are scattered across the healthy pool, with
// failed or straggling partitions retried and a graceful local fallback
// when no workers are available.
//
// API:
//
//	POST /v1/query            submit a pipeline spec (async; ?wait=1 blocks)
//	GET  /v1/jobs             list jobs
//	GET  /v1/jobs/{id}        job status and result
//	GET  /v1/jobs/{id}/trace  the job's query trace (span tree)
//	POST /v1/jobs/{id}/cancel abort a job
//	GET  /v1/debug/traces     ring of recent query traces
//	GET  /v1/debug/slowlog    slow-query log
//	GET  /metrics             Prometheus text exposition (?format=json
//	                          for counters, caches, tenants, cluster)
//	GET  /healthz             liveness
//	POST /v1/workers/register worker self-registration (cluster mode)
//	POST /v1/workers/deregister
//	GET  /v1/workers          healthy worker pool (cluster mode)
//
// The spec format is the same JSON cmd/pzrun reads (see internal/serve);
// the submitting tenant comes from the X-PZ-Tenant header ("default" when
// absent). See docs/architecture.md ("Serving layer") and the README's
// curl walkthrough.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/pz"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	var opts serveOptions
	serve.EngineFlags(flag.CommandLine, &opts.engine)
	flag.IntVar(&opts.maxInflight, "max-inflight", 8, "max concurrently executing queries")
	flag.IntVar(&opts.maxQueue, "max-queue", 16, "max queries waiting for a slot before load-shedding with 429")
	flag.IntVar(&opts.planCache, "plan-cache", 128, "cross-query plan cache capacity")
	flag.BoolVar(&opts.engine.EnableCache, "llm-cache", true, "memoize LLM responses across queries")
	flag.IntVar(&opts.engine.CacheCapacity, "llm-cache-capacity", 4096, "LLM cache entry bound (0 = unbounded)")
	flag.Float64Var(&opts.budget, "budget", 0, "default per-tenant cost budget in USD (0 = unlimited)")
	flag.Float64Var(&opts.slowQuerySec, "slow-query-sim-sec", 30, "slow-query log threshold in simulated seconds (0 disables /v1/debug/slowlog retention)")
	flag.BoolVar(&opts.cluster, "cluster", false, "act as a scatter/gather coordinator (mounts /v1/workers; implied by -worker)")
	flag.DurationVar(&opts.healthInterval, "health-interval", 5*time.Second, "worker health-check probe interval (cluster mode)")
	flag.DurationVar(&opts.partitionTimeout, "partition-timeout", 60*time.Second, "per-partition worker request timeout (cluster mode)")
	flag.IntVar(&opts.partitionRetries, "partition-retries", 3, "max attempts per partition before forcing local execution (cluster mode)")
	flag.DurationVar(&opts.stragglerAfter, "straggler-after", 30*time.Second, "re-issue a partition still in flight after this long (cluster mode)")

	opts.workers = map[string]string{}
	flag.Func("worker", "name=url static worker registration; implies -cluster (repeatable)", func(v string) error {
		name, url, ok := strings.Cut(v, "=")
		if !ok || name == "" || url == "" {
			return fmt.Errorf("want name=url, got %q", v)
		}
		opts.workers[name] = url
		return nil
	})
	datasets := map[string]string{}
	flag.Func("dataset", "name=path dataset registration: a folder, or an .ndjson corpus file (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		datasets[name] = path
		return nil
	})
	budgets := map[string]float64{}
	flag.Func("tenant-budget", "tenant=usd budget override (repeatable)", func(v string) error {
		name, usd, ok := strings.Cut(v, "=")
		if !ok || name == "" {
			return fmt.Errorf("want tenant=usd, got %q", v)
		}
		f, err := strconv.ParseFloat(usd, 64)
		if err != nil {
			return err
		}
		budgets[name] = f
		return nil
	})
	flag.Parse()
	opts.cluster = opts.cluster || len(opts.workers) > 0

	if err := run(*addr, datasets, budgets, opts); err != nil {
		fmt.Fprintln(os.Stderr, "pzserve:", err)
		os.Exit(1)
	}
}

type serveOptions struct {
	// engine holds the shared engine flags and -llm-cache,
	// -llm-cache-capacity.
	engine                           pz.Config
	maxInflight, maxQueue, planCache int
	budget                           float64
	slowQuerySec                     float64

	cluster                          bool
	workers                          map[string]string
	healthInterval, partitionTimeout time.Duration
	stragglerAfter                   time.Duration
	partitionRetries                 int
}

func run(addr string, datasets map[string]string, budgets map[string]float64, opts serveOptions) error {
	if err := serve.CheckEngineFlags(opts.engine); err != nil {
		return err
	}
	if opts.cluster && opts.partitionRetries < 1 {
		return fmt.Errorf("-partition-retries must be >= 1, got %d", opts.partitionRetries)
	}
	if opts.cluster && opts.partitionTimeout <= 0 {
		return fmt.Errorf("-partition-timeout must be > 0, got %v", opts.partitionTimeout)
	}
	if opts.cluster && opts.stragglerAfter <= 0 {
		return fmt.Errorf("-straggler-after must be > 0, got %v", opts.stragglerAfter)
	}
	if opts.slowQuerySec < 0 {
		return fmt.Errorf("-slow-query-sim-sec must be >= 0, got %v", opts.slowQuerySec)
	}
	ctx, err := pz.NewContext(opts.engine)
	if err != nil {
		return err
	}
	for name, path := range datasets {
		st, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("dataset %q: %w", name, err)
		}
		switch {
		case st.IsDir():
			if _, err := ctx.RegisterDir(name, path); err != nil {
				return err
			}
		case strings.EqualFold(filepath.Ext(path), ".ndjson"):
			if _, err := ctx.RegisterNDJSON(name, path); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dataset %q: %s is neither a directory nor an .ndjson corpus", name, path)
		}
		log.Printf("pzserve: registered dataset %q from %s", name, path)
	}
	counters := metrics.NewCounters()
	var reg *cluster.Registry
	var coord *cluster.Coordinator
	if opts.cluster {
		reg = cluster.NewRegistry(cluster.RegistryConfig{Counters: counters})
		for name, url := range opts.workers {
			if err := reg.Register(name, url); err != nil {
				return fmt.Errorf("worker %q: %w", name, err)
			}
			log.Printf("pzserve: registered static worker %q at %s", name, url)
		}
		coord, err = cluster.NewCoordinator(cluster.Config{
			Registry:         reg,
			Parallelism:      opts.engine.Parallelism,
			MaxAttempts:      opts.partitionRetries,
			PartitionTimeout: opts.partitionTimeout,
			StragglerAfter:   opts.stragglerAfter,
		})
		if err != nil {
			return err
		}
		reg.StartHealthLoop(opts.healthInterval)
		defer reg.Stop()
	}

	cfg := serve.Config{
		Context:          ctx,
		MaxInflight:      opts.maxInflight,
		MaxQueue:         opts.maxQueue,
		PlanCacheSize:    opts.planCache,
		DefaultBudgetUSD: opts.budget,
		TenantBudgets:    budgets,
		Counters:         counters,
		SlowQuerySimSec:  opts.slowQuerySec,
	}
	if coord != nil {
		cfg.Cluster = coord
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	var handler http.Handler = srv.Handler()
	if reg != nil {
		// The registry's worker-management endpoints share the serving
		// API's address space; everything else falls through to the
		// query-serving handler.
		mux := http.NewServeMux()
		mux.Handle("/v1/workers", cluster.RegistryHandler(reg))
		mux.Handle("/v1/workers/", cluster.RegistryHandler(reg))
		mux.Handle("/", srv.Handler())
		handler = mux
	}
	httpSrv := serve.NewHTTPServer(addr, handler)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-sig
		log.Print("pzserve: shutting down")
		srv.Close()
		if err := serve.Shutdown(httpSrv); err != nil {
			log.Printf("pzserve: shutdown: %v", err)
		}
	}()

	mode := "standalone"
	if opts.cluster {
		mode = fmt.Sprintf("cluster coordinator (%d static workers)", len(opts.workers))
	}
	log.Printf("pzserve: serving on %s (inflight=%d queue=%d plan-cache=%d, %s)",
		addr, opts.maxInflight, opts.maxQueue, opts.planCache, mode)
	if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
		return err
	}
	// ListenAndServe returns as soon as shutdown begins; wait for the
	// drain to end.
	<-drained
	return nil
}
