package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// RegistryConfig configures a Registry.
type RegistryConfig struct {
	// MaxFailures is how many consecutive failures (failed health checks
	// or failed partition attempts) a worker survives before it is
	// deregistered as lost (default 3).
	MaxFailures int
	// CheckTimeout bounds one health probe (default 2s).
	CheckTimeout time.Duration
	// Counters optionally shares a metrics registry; nil allocates one.
	Counters *metrics.Counters
}

// workerEntry is one registered worker's live state.
type workerEntry struct {
	name     string
	url      string
	failures int
}

// WorkerRef addresses one healthy worker.
type WorkerRef struct {
	Name string
	URL  string
}

// Registry tracks the live worker pool: registration (static -worker
// flags or dynamic /v1/workers/register heartbeats), consecutive-failure
// accounting shared by health probes and the coordinator's partition
// attempts, and deregistration of lost workers. All methods are safe for
// concurrent use.
type Registry struct {
	cfg      RegistryConfig
	counters *metrics.Counters
	client   *http.Client

	mu      sync.Mutex
	workers map[string]*workerEntry

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewRegistry builds an empty Registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.MaxFailures <= 0 {
		cfg.MaxFailures = 3
	}
	if cfg.CheckTimeout <= 0 {
		cfg.CheckTimeout = 2 * time.Second
	}
	if cfg.Counters == nil {
		cfg.Counters = metrics.NewCounters()
	}
	return &Registry{cfg: cfg, counters: cfg.Counters, client: &http.Client{},
		workers: map[string]*workerEntry{}, stop: make(chan struct{})}
}

// Counters exposes the registry's metrics.
func (g *Registry) Counters() *metrics.Counters { return g.counters }

// Register adds a worker (or refreshes an existing one — re-registration
// is the worker's heartbeat, and resets its failure count).
func (g *Registry) Register(name, rawURL string) error {
	if name == "" {
		return fmt.Errorf("cluster: register needs a worker name")
	}
	u, err := url.Parse(rawURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("cluster: worker %q has invalid URL %q", name, rawURL)
	}
	g.mu.Lock()
	if _, exists := g.workers[name]; !exists {
		g.counters.Inc("cluster_workers_registered")
	}
	g.workers[name] = &workerEntry{name: name, url: rawURL}
	g.setHealthyGaugeLocked()
	g.mu.Unlock()
	return nil
}

// Deregister removes a worker voluntarily (clean shutdown).
func (g *Registry) Deregister(name string) {
	g.mu.Lock()
	if _, ok := g.workers[name]; ok {
		delete(g.workers, name)
		g.counters.Inc("cluster_workers_deregistered")
		g.setHealthyGaugeLocked()
	}
	g.mu.Unlock()
}

// Healthy snapshots the current worker pool, name-sorted for
// deterministic scatter order.
func (g *Registry) Healthy() []WorkerRef {
	g.mu.Lock()
	out := make([]WorkerRef, 0, len(g.workers))
	for _, w := range g.workers {
		out = append(out, WorkerRef{Name: w.name, URL: w.url})
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the current pool size.
func (g *Registry) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.workers)
}

// NoteFailure records one failed interaction with a worker (health probe
// or partition attempt). At MaxFailures consecutive failures the worker
// is deregistered as lost; a recovered worker rejoins by re-registering.
func (g *Registry) NoteFailure(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.workers[name]
	if !ok {
		return
	}
	w.failures++
	if w.failures >= g.cfg.MaxFailures {
		delete(g.workers, name)
		g.counters.Inc("cluster_workers_lost")
		g.setHealthyGaugeLocked()
	}
}

// NoteSuccess resets a worker's consecutive-failure count.
func (g *Registry) NoteSuccess(name string) {
	g.mu.Lock()
	if w, ok := g.workers[name]; ok {
		w.failures = 0
	}
	g.mu.Unlock()
}

// setHealthyGaugeLocked refreshes the pool-size gauge; callers hold mu.
func (g *Registry) setHealthyGaugeLocked() {
	g.counters.Set("cluster_workers_healthy", int64(len(g.workers)))
}

// CheckOnce probes every registered worker's /healthz once, crediting
// successes and charging failures (lost workers deregister through the
// shared NoteFailure path).
func (g *Registry) CheckOnce() {
	for _, w := range g.Healthy() {
		if g.probe(w) {
			g.NoteSuccess(w.Name)
		} else {
			g.counters.Inc("cluster_health_check_failures")
			g.NoteFailure(w.Name)
		}
	}
}

// probe performs one bounded health request.
func (g *Registry) probe(w WorkerRef) bool {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.CheckTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.URL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// StartHealthLoop launches the periodic health checker; Stop ends it.
func (g *Registry) StartHealthLoop(interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-ticker.C:
				g.CheckOnce()
			}
		}
	}()
}

// Stop ends the health loop and waits for it to settle.
func (g *Registry) Stop() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// Views renders the pool for /metrics (serve.WorkerView is the wire
// shape the serving layer's Metrics payload embeds).
func (g *Registry) Views() []serve.WorkerView {
	g.mu.Lock()
	out := make([]serve.WorkerView, 0, len(g.workers))
	for _, w := range g.workers {
		out = append(out, serve.WorkerView{Name: w.name, URL: w.url, Failures: w.failures})
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RegistryHandler returns the coordinator-side registration API, mounted
// next to the serving API by cmd/pzserve:
//
//	POST /v1/workers/register   {"name": ..., "url": ...} (also heartbeat)
//	POST /v1/workers/deregister {"name": ...}
//	GET  /v1/workers            list the pool
func RegistryHandler(g *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers/register", func(rw http.ResponseWriter, r *http.Request) {
		var body struct {
			Name string `json:"name"`
			URL  string `json:"url"`
		}
		if code, err := serve.DecodeRequest(rw, r, &body); err != nil {
			writeError(rw, code, fmt.Errorf("cluster: parse registration: %w", err))
			return
		}
		if err := g.Register(body.Name, body.URL); err != nil {
			writeError(rw, http.StatusBadRequest, err)
			return
		}
		writeJSON(rw, http.StatusOK, map[string]any{"status": "registered", "workers": g.Len()})
	})
	mux.HandleFunc("POST /v1/workers/deregister", func(rw http.ResponseWriter, r *http.Request) {
		var body struct {
			Name string `json:"name"`
		}
		if code, err := serve.DecodeRequest(rw, r, &body); err != nil {
			writeError(rw, code, fmt.Errorf("cluster: parse deregistration: %w", err))
			return
		}
		g.Deregister(body.Name)
		writeJSON(rw, http.StatusOK, map[string]any{"status": "deregistered", "workers": g.Len()})
	})
	mux.HandleFunc("GET /v1/workers", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, g.Views())
	})
	return mux
}
