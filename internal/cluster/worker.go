package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/corpus"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Name labels the worker (registration, logs).
	Name string
	// Parallelism is the per-operator LLM concurrency of partition
	// sub-plans (default 4).
	Parallelism int
	// ChunkSize is how many records each streamed response chunk carries
	// (default 256).
	ChunkSize int
	// Datasets maps registered dataset names to their backing .ndjson
	// corpus files. A partition request for an unknown name is rejected;
	// coordinator and worker must agree on names, not paths.
	Datasets map[string]string
}

// Worker executes scattered partitions for a coordinator: each
// /v1/partition request runs one serve.Spec sub-plan over one byte range
// of a local corpus file (see ExecutePartition) and streams the results
// back as seq-tagged NDJSON chunks.
type Worker struct {
	cfg      WorkerConfig
	counters *metrics.Counters
	hists    *metrics.Histograms
}

// NewWorker builds a Worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 4
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 256
	}
	return &Worker{cfg: cfg, counters: metrics.NewCounters(), hists: metrics.NewHistograms()}, nil
}

// Name returns the worker's label.
func (w *Worker) Name() string { return w.cfg.Name }

// Counters exposes the worker's metrics registry.
func (w *Worker) Counters() *metrics.Counters { return w.counters }

// Handler returns the worker HTTP API:
//
//	POST /v1/partition execute one scattered partition, streaming NDJSON
//	                   chunks (terminal chunk has done=true)
//	GET  /metrics      Prometheus text exposition (the same renderer
//	                   pzserve uses); ?format=json keeps the JSON snapshot
//	GET  /healthz      liveness (the registry's health checks poll it)
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/partition", w.handlePartition)
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			writeJSON(rw, http.StatusOK, map[string]any{
				"worker":     w.cfg.Name,
				"counters":   w.counters.Snapshot(),
				"histograms": w.hists.Snapshot(),
			})
			return
		}
		rw.Header().Set("Content-Type", metrics.PromContentType)
		metrics.RenderProm(rw, "pz", w.counters, w.hists, nil)
	})
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, map[string]string{"status": "ok", "worker": w.cfg.Name})
	})
	return mux
}

// handlePartition executes one partition request and streams the result.
// Execution failures before the first byte surface as HTTP errors; the
// request context carries the coordinator's cancellation, so an aborted
// query stops the sub-plan between records.
func (w *Worker) handlePartition(rw http.ResponseWriter, r *http.Request) {
	var req PartitionRequest
	if code, err := serve.DecodeRequest(rw, r, &req); err != nil {
		w.counters.Inc("worker_partition_errors")
		writeError(rw, code, fmt.Errorf("cluster: parse partition request: %w", err))
		return
	}
	name := req.Spec.Dataset.Name
	if name == "" {
		name = "dataset"
	}
	path, ok := w.cfg.Datasets[name]
	if !ok {
		w.counters.Inc("worker_partition_errors")
		writeError(rw, http.StatusNotFound, fmt.Errorf("cluster: worker %s has no dataset %q", w.cfg.Name, name))
		return
	}
	res, err := ExecutePartition(r.Context(), &req, path, w.cfg.Parallelism)
	if err != nil {
		w.counters.Inc("worker_partition_errors")
		writeError(rw, http.StatusInternalServerError, err)
		return
	}
	w.counters.Inc("worker_partitions_served")
	w.counters.Add("worker_records_streamed", int64(len(res.Records)))
	w.hists.Observe("worker_partition_sim_seconds", metrics.LatencyBuckets, res.Elapsed.Seconds())

	rw.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := rw.(http.Flusher)
	bw := bufio.NewWriterSize(rw, 64<<10)
	var enc corpus.RecordEncoder
	seq := 0
	for start := 0; start < len(res.Records); start += w.cfg.ChunkSize {
		recs := res.Records[start:min(start+w.cfg.ChunkSize, len(res.Records))]
		if err := writeChunk(bw, &enc, seq, recs); err != nil || bw.Flush() != nil {
			// The connection is gone, or a value JSON cannot carry cut
			// the chunk short. The stream ends without a done chunk,
			// and the coordinator re-scatters.
			return
		}
		seq++
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = json.NewEncoder(rw).Encode(PartitionChunk{Seq: seq, Done: true,
		ElapsedSimNS: int64(res.Elapsed), CostUSD: res.CostUSD, Trace: res.Trace})
	if flusher != nil {
		flusher.Flush()
	}
}

func writeJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	_ = json.NewEncoder(rw).Encode(v)
}

func writeError(rw http.ResponseWriter, code int, err error) {
	writeJSON(rw, code, map[string]string{"error": err.Error()})
}
