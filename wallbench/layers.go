package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/archytas"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/ops"
	"repro/internal/record"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/pz"
)

// tally counts what a workload's ops did in each layer during the traced
// run. The per-layer count metrics and the CPU shares are derived from it.
type tally struct {
	// docs counts input documents entering the ops' scans.
	docs int
	// decoded counts documents decoded from NDJSON.
	decoded int
	// dirLoads counts folder datasets read file by file.
	dirLoads int
	// calls counts LLM completions that reached the model; hits and
	// lookups count LLM cache hits and lookups, evictions LRU drops.
	calls, hits, lookups, evictions int
	// optimizes counts optimizer runs; planHits and planLookups the
	// serving plan cache.
	optimizes, planHits, planLookups int
	// queries counts HTTP queries; rejected those refused; jobs the jobs
	// the server retains.
	queries, rejected, jobs int
	// wire counts records crossing the cluster wire; attempts the remote
	// or local partition executions, partitions the partitions needed.
	wire, attempts, partitions int
	// turns counts chat turns.
	turns int
}

// layerInputs are a workload's inputs as the layer suite consumes them.
type layerInputs struct {
	// corpus is an NDJSON corpus of the workload's documents.
	corpus string
	// gen regenerates (a prefix of) that corpus, for timing generation.
	gen func() corpus.Generator
	// dir is a folder dataset of the workload's documents.
	dir string
	// spec is the workload's representative op over the corpus,
	// registered as dataset "data".
	spec serve.Spec
	// cache runs the suite's engine with the LLM cache on, as the
	// workload does.
	cache bool
	// chat is the conversation the archytas and palimpchat layers replay.
	chat []*chatVariant
	// tally is what the workload's ops did during the traced run.
	tally tally
}

// layerCap bounds the documents and requests each micro-measurement
// replays, so a traced run stays short on the large corpora.
const (
	layerDocs     = 20_000
	layerRequests = 2_000
)

// perLayerNames lists every per-layer metric, as BENCHMARK.json does.
var perLayerNames = []string{
	"trace.docs_per_s",
	"corpus.decode_ns_per_doc", "corpus.decode_allocs_per_doc", "corpus.gen_ns_per_doc",
	"dataset.iterate_ns_per_doc", "dataset.iterate_allocs_per_doc", "dataset.dir_load_ms",
	"ops.filter_request_ns", "ops.filter_request_allocs",
	"llm.complete_ns_per_call", "llm.complete_allocs_per_call", "llm.complete_contended_ns_per_call",
	"llm.cache_hit_ns_per_call", "llm.cache_hit_allocs_per_call",
	"llm.calls_per_doc", "llm.cache_hit_ratio", "llm.cache_evictions_per_op",
	"optimizer.optimize_ms", "optimizer.candidates_per_optimize", "optimizer.plan_cache_hit_ratio",
	"exec.run_ms_per_op", "exec.self_ns_per_doc", "exec.batches_per_op",
	"serve.handle_us_per_query", "serve.http_us_per_query", "serve.records_json_ns_per_record",
	"serve.response_bytes_per_record", "serve.rejected_share", "serve.jobs_retained",
	"cluster.encode_ns_per_record", "cluster.decode_ns_per_record", "cluster.wire_bytes_per_record",
	"cluster.partition_ms", "cluster.gather_ms", "cluster.attempts_per_partition",
	"archytas.route_us_per_utterance", "archytas.tool_calls_per_turn", "archytas.route_accuracy",
	"palimpchat.turn_ms.load", "palimpchat.turn_ms.build", "palimpchat.turn_ms.run",
	"palimpchat.turn_ms.report", "palimpchat.turn_ms.codegen",
	"palimpchat.codegen_us", "palimpchat.notebook_export_us",
	"share.corpus", "share.dataset", "share.ops", "share.llm", "share.optimizer",
	"share.serve", "share.cluster", "share.archytas", "share.exec_other",
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "docs_per_s"):
		return "docs/s"
	case strings.Contains(name, "_ns"):
		return "ns"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "bytes"):
		return "B"
	case strings.HasPrefix(name, "share."), strings.HasSuffix(name, "ratio"),
		strings.HasSuffix(name, "share"), strings.HasSuffix(name, "accuracy"):
		return "ratio"
	}
	return "count"
}

// span is one traced interval: an op of the workload or a layer call of
// the suite. Spans of one op share its op number (0 outside ops).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Calls is how many calls a batched layer span covers.
	Calls int `json:"calls,omitempty"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(parent, op int, name string, start, end time.Time, calls int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Calls: calls})
	return id
}

// timed runs fn under a span and returns its duration and allocations.
func (t *tracer) timed(parent int, name string, calls int, fn func() error) (time.Duration, uint64, error) {
	u0 := readUsage()
	start := time.Now()
	err := fn()
	end := time.Now()
	u := readUsage().sub(u0)
	t.add(parent, 0, name, start, end, calls)
	return end.Sub(start), u.allocs, err
}

// repeat runs fn under spans until minTotal has passed or maxReps runs
// are done (at least once) and returns the median duration.
func (t *tracer) repeat(parent int, name string, minTotal time.Duration, maxReps int, fn func() error) (time.Duration, error) {
	var ds []float64
	var total time.Duration
	for len(ds) == 0 || (total < minTotal && len(ds) < maxReps) {
		d, _, err := t.timed(parent, name, 1, fn)
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
		total += d
	}
	return time.Duration(median(ds)), nil
}

func (t *tracer) write(path, name string, cfg config) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"workload": name, "seed": cfg.seed, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceRun sets the workload up once, runs its op sequence once with a
// span around every op, then replays each layer's public calls on the
// workload's inputs with a span around each, and prints the per-layer
// metrics. The spans go to spansPath.
func traceRun(stdout io.Writer, name string, cfg config, tmp, spansPath string) (*result, map[string]int, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer w.close()
	tr := &tracer{t0: time.Now()}
	dir := filepath.Join(tmp, "setup")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	if err := w.setup(dir); err != nil {
		return nil, nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	tr.add(0, 0, "setup", start, time.Now(), 1)

	ph, err := runPhase(w)
	if err != nil {
		return nil, nil, err
	}
	root := tr.add(0, 0, "ops", ph.stats[0].start, time.Now(), len(ph.stats))
	failed := 0
	for i, st := range ph.stats {
		tr.add(root, i+1, "op."+st.class, st.start, st.start.Add(st.wall), 1)
		if !st.ok {
			failed++
			fmt.Fprintf(stdout, "# failed %s op: %v\n", st.class, st.err)
		}
	}
	e2e, _, _ := endToEnd(ph, 0)

	layersDir := filepath.Join(tmp, "layers")
	if err := os.MkdirAll(layersDir, 0o755); err != nil {
		return nil, nil, err
	}
	li, err := w.layers(layersDir)
	if err != nil {
		return nil, nil, err
	}
	for _, st := range ph.stats {
		li.tally.docs += st.docs
	}
	m, err := measureLayers(tr, li, layersDir)
	if err != nil {
		return nil, nil, err
	}
	m["trace.docs_per_s"] = e2e["docs_per_s"].Value
	shares(m, li.tally, ph.used.cpu)
	if err := tr.write(spansPath, name, cfg); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stdout, "# spans %s (%d)\n", spansPath, len(tr.spans))
	for _, k := range perLayerNames {
		if strings.HasPrefix(k, "share.") {
			fmt.Fprintf(stdout, "# cpu share %-12s %.4f\n", strings.TrimPrefix(k, "share."), m[k])
		}
	}
	out := map[string]metric{}
	for _, k := range perLayerNames {
		v, ok := m[k]
		if !ok {
			return nil, nil, fmt.Errorf("traced run measured no %s", k)
		}
		out[k] = metric{Value: v, Unit: unitOf(k)}
	}
	return &result{Correct: failed == 0, Attempted: len(ph.stats), Failed: failed, Metrics: out}, w.sizes(), nil
}

// shares estimates each layer's share of the run's CPU time: the count of
// its calls during the traced run times its replayed cost per call. The
// engine and everything unattributed make up exec_other.
func shares(m map[string]float64, t tally, cpu time.Duration) {
	est := map[string]float64{
		"corpus":    float64(t.decoded) * m["corpus.decode_ns_per_doc"],
		"dataset":   float64(t.decoded)*(m["dataset.iterate_ns_per_doc"]-m["corpus.decode_ns_per_doc"]) + float64(t.dirLoads)*m["dataset.dir_load_ms"]*1e6,
		"ops":       float64(t.calls) * m["ops.filter_request_ns"],
		"llm":       float64(t.calls)*m["llm.complete_ns_per_call"] + float64(t.hits)*m["llm.cache_hit_ns_per_call"],
		"optimizer": float64(t.optimizes) * m["optimizer.optimize_ms"] * 1e6,
		"serve":     float64(t.queries) * (m["serve.http_us_per_query"] + m["serve.handle_us_per_query"] - m["exec.run_ms_per_op"]*1e3) * 1e3,
		"cluster":   float64(t.wire) * (m["cluster.encode_ns_per_record"] + m["cluster.decode_ns_per_record"]),
		"archytas":  float64(t.turns) * m["archytas.route_us_per_utterance"] * 1e3,
	}
	rest := float64(cpu)
	for k, v := range est {
		v = math.Max(v, 0)
		m["share."+k] = v / float64(cpu)
		rest -= v
	}
	m["share.exec_other"] = rest / float64(cpu)
}

// measureLayers replays every layer's public calls on the workload's
// inputs and returns the per-layer metrics.
func measureLayers(tr *tracer, li *layerInputs, dir string) (map[string]float64, error) {
	m := map[string]float64{}
	if err := measureCorpus(tr, li, dir, m); err != nil {
		return nil, err
	}
	if err := measureLLM(tr, li, m); err != nil {
		return nil, err
	}
	run, err := measureEngine(tr, li, m)
	if err != nil {
		return nil, err
	}
	if err := measureServe(tr, li, run, m); err != nil {
		return nil, err
	}
	if err := measureCluster(tr, li, run, m); err != nil {
		return nil, err
	}
	if err := measureChat(tr, li, m); err != nil {
		return nil, err
	}
	t := li.tally
	m["llm.calls_per_doc"] = ratio(t.calls, t.docs)
	m["llm.cache_hit_ratio"] = ratio(t.hits, t.lookups)
	m["llm.cache_evictions_per_op"] = ratio(t.evictions, t.queries+t.turns+t.partitions)
	m["optimizer.plan_cache_hit_ratio"] = ratio(t.planHits, t.planLookups)
	if t.queries > 0 {
		m["serve.rejected_share"] = ratio(t.rejected, t.queries)
		m["serve.jobs_retained"] = float64(t.jobs)
	}
	if t.partitions > 0 {
		m["cluster.attempts_per_partition"] = ratio(t.attempts, t.partitions)
	}
	return m, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// measureCorpus times generation, decode, record build and folder loads.
func measureCorpus(tr *tracer, li *layerInputs, dir string, m map[string]float64) error {
	g := li.gen()
	genPath := filepath.Join(dir, "gen.ndjson")
	d, _, err := tr.timed(0, "corpus.SaveNDJSON", g.Len(), func() error {
		_, err := corpus.SaveNDJSON(genPath, g, 0, nil)
		return err
	})
	if err != nil {
		return err
	}
	m["corpus.gen_ns_per_doc"] = float64(d) / float64(max(g.Len(), 1))

	r, err := corpus.OpenNDJSON(li.corpus)
	if err != nil {
		return err
	}
	n := 0
	d, allocs, err := tr.timed(0, "corpus.DocReader.Next", min(layerDocs, r.Len()), func() error {
		for n < layerDocs {
			if _, err := r.Next(); err != nil {
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			n++
		}
		return nil
	})
	r.Close()
	if err != nil {
		return err
	}
	m["corpus.decode_ns_per_doc"] = float64(d) / float64(max(n, 1))
	m["corpus.decode_allocs_per_doc"] = float64(allocs) / float64(max(n, 1))

	src, err := dataset.NewNDJSONSource("data", li.corpus)
	if err != nil {
		return err
	}
	n = 0
	d, allocs, err = tr.timed(0, "dataset.NDJSONSource.IterateRecords", min(layerDocs, src.Len()), func() error {
		return src.IterateRecords(func(*record.Record) error {
			n++
			if n >= layerDocs {
				return dataset.ErrStop
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	m["dataset.iterate_ns_per_doc"] = float64(d) / float64(max(n, 1))
	m["dataset.iterate_allocs_per_doc"] = float64(allocs) / float64(max(n, 1))

	dirSrc, err := dataset.NewDirSource("data", li.dir)
	if err != nil {
		return err
	}
	d, err = tr.repeat(0, "dataset.DirSource.Records", 200*time.Millisecond, 50, func() error {
		_, err := dirSrc.Records()
		return err
	})
	m["dataset.dir_load_ms"] = float64(d) / 1e6
	return err
}

// filterModel is the model the request-build and completion replays use:
// the most capable one, which max-quality plans choose.
const filterModel = "atlas-large"

// measureLLM times request build, completion (alone and contended) and
// cache hits on requests for the workload's own records.
func measureLLM(tr *tracer, li *layerInputs, m map[string]float64) error {
	src, err := dataset.NewNDJSONSource("data", li.corpus)
	if err != nil {
		return err
	}
	var recs []*record.Record
	if err := src.IterateRecords(func(r *record.Record) error {
		recs = append(recs, r)
		if len(recs) >= layerRequests {
			return dataset.ErrStop
		}
		return nil
	}); err != nil {
		return err
	}
	predicate := li.spec.Ops[0].Predicate
	reqs := make([]llm.Request, len(recs))
	d, allocs, _ := tr.timed(0, "ops.FilterRequest", len(recs), func() error {
		for i, r := range recs {
			reqs[i] = ops.FilterRequest(filterModel, predicate, r)
		}
		return nil
	})
	n := float64(len(reqs))
	m["ops.filter_request_ns"] = float64(d) / n
	m["ops.filter_request_allocs"] = float64(allocs) / n

	svc := llm.NewService()
	d, allocs, err = tr.timed(0, "llm.Service.Complete", len(reqs), func() error {
		for _, req := range reqs {
			if _, err := svc.Complete(req); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["llm.complete_ns_per_call"] = float64(d) / n
	m["llm.complete_allocs_per_call"] = float64(allocs) / n

	// nproc goroutines share one Service; the figure is wall time per
	// call as each caller sees it, equal to the single-caller figure when
	// calls do not contend.
	g := runtime.NumCPU()
	shared := llm.NewService()
	d, _, err = tr.timed(0, "llm.Service.Complete(contended)", len(reqs), func() error {
		var wg sync.WaitGroup
		var failed atomic.Bool
		for k := 0; k < g; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				for i := k; i < len(reqs); i += g {
					if _, err := shared.Complete(reqs[i]); err != nil {
						failed.Store(true)
					}
				}
			}(k)
		}
		wg.Wait()
		if failed.Load() {
			return errors.New("contended completion failed")
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["llm.complete_contended_ns_per_call"] = float64(d) * float64(g) / n

	cc, err := llm.NewCachedClient(llm.NewService(), llm.NewCache())
	if err != nil {
		return err
	}
	for _, req := range reqs {
		if _, err := cc.Complete(req); err != nil {
			return err
		}
	}
	d, allocs, err = tr.timed(0, "llm.CachedClient.Complete(hit)", len(reqs), func() error {
		for _, req := range reqs {
			if _, err := cc.Complete(req); err != nil {
				return err
			}
		}
		return nil
	})
	m["llm.cache_hit_ns_per_call"] = float64(d) / n
	m["llm.cache_hit_allocs_per_call"] = float64(allocs) / n
	return err
}

// engineRun is the suite's own execution of the workload's op, which the
// serve and cluster measurements reuse.
type engineRun struct {
	ctx     *pz.Context
	records []*pz.Record
}

// measureEngine times the optimizer and the engine on the op's pipeline.
func measureEngine(tr *tracer, li *layerInputs, m map[string]float64) (engineRun, error) {
	var batches atomic.Int64
	ctx, err := pz.NewContext(pz.Config{Parallelism: runtime.NumCPU(), EnableCache: li.cache,
		OnProgress: func(pz.Progress) { batches.Add(1) }})
	if err != nil {
		return engineRun{}, err
	}
	if _, err := ctx.RegisterNDJSON("data", li.corpus); err != nil {
		return engineRun{}, err
	}
	ds, err := li.spec.Build(ctx)
	if err != nil {
		return engineRun{}, err
	}
	policy, err := li.spec.ParsePolicy()
	if err != nil {
		return engineRun{}, err
	}
	var plan *pz.Plan
	var cands []*pz.Plan
	d, err := tr.repeat(0, "optimizer.OptimizeOnly", 200*time.Millisecond, 20, func() error {
		plan, cands, err = ctx.OptimizeOnly(ds, policy)
		return err
	})
	if err != nil {
		return engineRun{}, err
	}
	m["optimizer.optimize_ms"] = float64(d) / 1e6
	m["optimizer.candidates_per_optimize"] = float64(len(cands))

	// Runs repeat for at least 300ms (at most 5); the engine's own cost is
	// the run's CPU time less the replayed decode, request and completion
	// costs, so it stays meaningful when stages overlap on several cores.
	var res *pz.Result
	var walls, cpus []float64
	var total time.Duration
	batches.Store(0)
	for len(walls) == 0 || (total < 300*time.Millisecond && len(walls) < 5) {
		u0 := readUsage()
		d, _, err := tr.timed(0, "exec.ExecutePlanContext", 1, func() error {
			res, err = ctx.ExecutePlanContext(context.Background(), plan, policy.Describe())
			return err
		})
		if err != nil {
			return engineRun{}, err
		}
		walls = append(walls, float64(d))
		cpus = append(cpus, float64(readUsage().sub(u0).cpu))
		total += d
	}
	docs := scannedDocs(res.Trace)
	calls := traceCalls(res.Trace)
	m["exec.run_ms_per_op"] = median(walls) / 1e6
	m["exec.batches_per_op"] = float64(batches.Load()) / float64(len(walls))
	replayed := float64(docs)*m["dataset.iterate_ns_per_doc"] +
		float64(calls)*(m["ops.filter_request_ns"]+m["llm.complete_ns_per_call"])
	m["exec.self_ns_per_doc"] = (median(cpus) - replayed) / float64(max(docs, 1))
	return engineRun{ctx: ctx, records: res.Records}, nil
}

// measureServe times one query through the handler and through loopback
// HTTP, and the result encoding.
func measureServe(tr *tracer, li *layerInputs, run engineRun, m map[string]float64) error {
	srv, err := serve.New(serve.Config{Context: run.ctx})
	if err != nil {
		return err
	}
	defer srv.Close()
	spec := li.spec
	spec.Partitions = 0
	body, err := json.Marshal(&spec)
	if err != nil {
		return err
	}
	h := srv.Handler()
	served := &servedLog{}
	ts := httptest.NewServer(served.wrap(h, "/v1/query"))
	defer ts.Close()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	handle := func() error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query?wait=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("serve handler: status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		return nil
	}
	loopback := func() error {
		resp, err := client.Post(ts.URL+"/v1/query?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("serve loopback: status %d", resp.StatusCode)
		}
		return nil
	}
	// A first query warms the plan cache (and the LLM cache, when on).
	if err := handle(); err != nil {
		return err
	}
	// A loopback query's HTTP cost is its wall time at the client less the
	// time the server's handler spent on that same request.
	var handles, https []float64
	var total time.Duration
	for len(handles) < 3 || (total < 300*time.Millisecond && len(handles) < 20) {
		dh, _, err := tr.timed(0, "serve.Handler.ServeHTTP", 1, handle)
		if err != nil {
			return err
		}
		served.reset()
		dl, _, err := tr.timed(0, "serve.http(loopback)", 1, loopback)
		if err != nil {
			return err
		}
		handles = append(handles, float64(dh))
		https = append(https, float64(dl-served.busy()))
		total += dh + dl
	}
	m["serve.handle_us_per_query"] = median(handles) / 1e3
	m["serve.http_us_per_query"] = median(https) / 1e3

	recs := run.records
	var out []byte
	d, _, err := tr.timed(0, "serve.RecordsJSON", len(recs), func() error {
		out, err = serve.RecordsJSON(recs)
		return err
	})
	if err != nil {
		return err
	}
	m["serve.records_json_ns_per_record"] = float64(d) / float64(max(len(recs), 1))
	m["serve.response_bytes_per_record"] = float64(len(out)) / float64(max(len(recs), 1))

	c := srv.Counters()
	m["serve.rejected_share"] = ratio(int(c.Get("rejected_overload")+c.Get("rejected_budget")), int(c.Get("queries_total")))
	m["serve.jobs_retained"] = float64(c.Get("queries_done"))
	return nil
}

// measureCluster times the wire codec on the op's output records, one
// partition execution per corpus partition, and one scatter over two
// loopback workers.
func measureCluster(tr *tracer, li *layerInputs, run engineRun, m map[string]float64) error {
	recs := run.records
	if len(recs) == 0 {
		return errors.New("the op produced no records to encode")
	}
	var data []byte
	d, _, err := tr.timed(0, "cluster.EncodeRecords", len(recs), func() error {
		var err error
		data, err = json.Marshal(cluster.PartitionChunk{Records: cluster.EncodeRecords(recs)})
		return err
	})
	if err != nil {
		return err
	}
	n := float64(len(recs))
	m["cluster.encode_ns_per_record"] = float64(d) / n
	m["cluster.wire_bytes_per_record"] = float64(len(data)) / n
	d, _, err = tr.timed(0, "cluster.DecodeRecords", len(recs), func() error {
		var chunk cluster.PartitionChunk
		if err := json.Unmarshal(data, &chunk); err != nil {
			return err
		}
		_, err := cluster.DecodeRecords(recs[0].Schema(), chunk.Records)
		return err
	})
	if err != nil {
		return err
	}
	m["cluster.decode_ns_per_record"] = float64(d) / n

	src, err := dataset.NewNDJSONSource("data", li.corpus)
	if err != nil {
		return err
	}
	ranges := src.PartitionRanges(scatterPartitions)
	if len(ranges) == 0 {
		ranges = []corpus.Partition{{Ordinal: 0, Offset: 0, Docs: src.Len()}}
	}
	spec := li.spec
	spec.Partitions = 0
	var parts []float64
	for _, p := range ranges {
		req := &cluster.PartitionRequest{Spec: spec, Partition: p.Ordinal, Offset: p.Offset, Docs: p.Docs}
		d, _, err := tr.timed(0, "cluster.ExecutePartition", 1, func() error {
			_, err := cluster.ExecutePartition(context.Background(), req, li.corpus, runtime.NumCPU())
			return err
		})
		if err != nil {
			return err
		}
		parts = append(parts, float64(d)/1e6)
	}
	m["cluster.partition_ms"] = median(parts)

	reg := cluster.NewRegistry(cluster.RegistryConfig{})
	served := &servedLog{}
	for i := 0; i < scatterWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		wk, err := cluster.NewWorker(cluster.WorkerConfig{Name: name, Parallelism: runtime.NumCPU(),
			ChunkSize: 4096, Datasets: map[string]string{"data": li.corpus}})
		if err != nil {
			return err
		}
		ts := httptest.NewServer(served.wrap(wk.Handler(), "/v1/partition"))
		defer ts.Close()
		if err := reg.Register(name, ts.URL); err != nil {
			return err
		}
	}
	coord, err := cluster.NewCoordinator(cluster.Config{Registry: reg, Parallelism: runtime.NumCPU(),
		PartitionTimeout: 5 * time.Minute, StragglerAfter: 5 * time.Minute})
	if err != nil {
		return err
	}
	pzctx, err := pz.NewContext(pz.Config{Parallelism: runtime.NumCPU()})
	if err != nil {
		return err
	}
	if _, err := pzctx.RegisterNDJSON("data", li.corpus); err != nil {
		return err
	}
	spec.Partitions = scatterPartitions
	// The gather is the coordinator's time with no partition request in
	// flight at any worker: planning and dispatch before the first, the
	// merge and any suffix after the last.
	var gathers []float64
	for k := 0; k < scatterReps; k++ {
		served.reset()
		scattered := false
		d, _, err = tr.timed(0, "cluster.Coordinator.TryExecute", 1, func() error {
			_, ok, err := coord.TryExecute(context.Background(), pzctx, &spec, scatterPartitions)
			scattered = ok
			return err
		})
		if err != nil {
			return err
		}
		if !scattered {
			return errors.New("the coordinator declined the scatter")
		}
		gathers = append(gathers, float64(d-served.busy())/1e6)
	}
	m["cluster.gather_ms"] = median(gathers)
	c := reg.Counters()
	attempts := c.Get("cluster_partitions_scattered") + c.Get("cluster_partitions_rescattered") +
		c.Get("cluster_straggler_reissues") + c.Get("cluster_partitions_local")
	m["cluster.attempts_per_partition"] = ratio(int(attempts), scatterReps*len(ranges))
	return nil
}

// scatterReps is how many scatters the gather figure is the median of.
const scatterReps = 3

// servedLog records the wall intervals during which a server's handler
// served requests for one path.
type servedLog struct {
	mu sync.Mutex
	iv []interval
}

func (s *servedLog) wrap(h http.Handler, path string) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(rw, r)
		if r.URL.Path == path {
			s.mu.Lock()
			s.iv = append(s.iv, interval{start, time.Now()})
			s.mu.Unlock()
		}
	})
}

func (s *servedLog) reset() {
	s.mu.Lock()
	s.iv = nil
	s.mu.Unlock()
}

// busy is the wall time during which at least one logged request was
// being served.
func (s *servedLog) busy() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return busyTime(s.iv)
}

// measureChat replays the conversation: routing of every utterance, every
// turn through Session.Chat by class, code generation and notebook export.
func measureChat(tr *tracer, li *layerInputs, m map[string]float64) error {
	byClass := map[string][]float64{}
	var routes []float64
	correct, turns, calls := 0, 0, 0
	var codegen, export []float64
	for _, v := range li.chat {
		s, err := newChatSession()
		if err != nil {
			return err
		}
		tb := s.Agent().Toolbox()
		for _, t := range v.turns {
			var scores []archytas.Score
			d, _, _ := tr.timed(0, "archytas.Toolbox.Route", 1, func() error {
				scores = tb.Route(t.utterance)
				return nil
			})
			routes = append(routes, float64(d)/1e3)
			if len(scores) > 0 && scores[0].Tool.Name == t.actions[0] {
				correct++
			}
			before := len(s.Steps())
			d, _, err := tr.timed(0, "palimpchat.Session.Chat."+t.class, 1, func() error {
				_, err := s.Chat(t.utterance)
				return err
			})
			if err != nil {
				return fmt.Errorf("chat turn %q: %w", t.utterance, err)
			}
			if err := checkActions(s, before, t); err != nil {
				return err
			}
			byClass[t.class] = append(byClass[t.class], float64(d)/1e6)
			calls += len(s.Steps()) - before
			turns++
		}
		d, _, err := tr.timed(0, "palimpchat.GenerateCode", 1, func() error {
			_, err := s.GenerateCode()
			return err
		})
		if err != nil {
			return err
		}
		codegen = append(codegen, float64(d)/1e3)
		d, _, err = tr.timed(0, "notebook.ExportJSON", 1, func() error {
			_, err := s.Notebook().ExportJSON()
			return err
		})
		if err != nil {
			return err
		}
		export = append(export, float64(d)/1e3)
	}
	m["archytas.route_us_per_utterance"] = median(routes)
	m["archytas.route_accuracy"] = ratio(correct, turns)
	m["archytas.tool_calls_per_turn"] = ratio(calls, turns)
	for _, c := range []string{"load", "build", "run", "report", "codegen"} {
		m["palimpchat.turn_ms."+c] = median(byClass[c])
	}
	m["palimpchat.codegen_us"] = median(codegen)
	m["palimpchat.notebook_export_us"] = median(export)
	return nil
}

// scannedDocs reads how many documents a run's scan stages produced,
// across the partitions and workers of a clustered run.
func scannedDocs(t *pz.Span) int {
	n := 0
	for _, s := range t.FindAll(trace.KindStage) {
		if s.OpIndex == 0 {
			n += s.RecordsOut
		}
	}
	return n
}

// traceCalls sums the LLM calls of a run's stage spans.
func traceCalls(t *pz.Span) int {
	n := 0
	for _, s := range t.FindAll(trace.KindStage) {
		n += s.LLMCalls
	}
	return n
}

// traceHits sums the LLM cache hits of a run's stage spans.
func traceHits(t *pz.Span) int {
	n := 0
	for _, s := range t.FindAll(trace.KindStage) {
		n += s.CacheHits
	}
	return n
}

// supportSample materializes the first tickets of the seeded support
// corpus as a folder dataset under dir.
func supportSample(dir string, seed int64) (string, error) {
	docs := corpus.GenerateSupport(corpus.SupportConfig{NumTickets: 200, UrgentRate: 0.3, Seed: seed})
	path := filepath.Join(dir, "sample")
	_, err := dataset.MaterializeCorpus("data", path, docs)
	return path, err
}

// supportGen regenerates the first n tickets of the seeded corpus.
func supportGen(n int, seed int64) func() corpus.Generator {
	return func() corpus.Generator {
		return corpus.NewSupportGenerator(corpus.SupportConfig{NumTickets: n, UrgentRate: 0.3, Seed: seed})
	}
}

// docsInputs writes docs as an NDJSON corpus and as a folder under dir.
func docsInputs(dir, domain string, docs []*corpus.Doc) (ndjson, folder string, gen func() corpus.Generator, err error) {
	gen = func() corpus.Generator { return corpus.NewSliceGenerator(domain, docs) }
	ndjson = filepath.Join(dir, "data.ndjson")
	if _, err = corpus.SaveNDJSON(ndjson, gen(), 0, nil); err != nil {
		return "", "", nil, err
	}
	folder = filepath.Join(dir, "sample")
	_, err = dataset.MaterializeCorpus("data", folder, docs)
	return ndjson, folder, gen, err
}

// demoChat is the conversation the layer suite replays for workloads
// without one of their own: the paper's scientific-discovery scenario.
func demoChat(dir string) ([]*chatVariant, error) {
	sc := chatScenarios(0, 0)[0]
	sc.dir = filepath.Join(dir, "demo")
	if _, err := dataset.MaterializeCorpus(sc.name, sc.dir, sc.docs); err != nil {
		return nil, err
	}
	return []*chatVariant{sc.variant(sc.builds[0], chatPolicies[0])}, nil
}

// supportSpec is the support-triage op over the suite's dataset.
func supportSpec(convert bool) serve.Spec {
	ops := []serve.OpSpec{{Op: "filter", Predicate: workloads.SupportPredicate}}
	if convert {
		route, _ := workloads.SupportRouteSchema() // a fixed schema always derives
		ops = append(ops, serve.OpSpec{Op: "convert", Schema: route.Name(), Doc: route.Doc(), Fields: route.FieldNames()})
	}
	return serve.Spec{Dataset: serve.DatasetSpec{Name: "data"}, Ops: ops, Policy: "max-quality"}
}
