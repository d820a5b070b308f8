package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/pz"
)

// writeTicketCorpus spills an indexed support corpus to disk.
func writeTicketCorpus(t testing.TB, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tickets.ndjson")
	g := corpus.NewSupportGenerator(corpus.SupportConfig{NumTickets: n, UrgentRate: 0.3, Seed: 23})
	if _, err := corpus.SaveNDJSON(path, g, 23, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

// ticketSpec builds a partitioned triage query: the urgency filter plus
// any extra (suffix) operators. Max-quality picks an LLM filter, which is
// record-wise and therefore distributable (min-cost's adaptive
// embed-filter is not — see TestNonStreamableChampionDeclines).
func ticketSpec(partitions int, extra ...serve.OpSpec) *serve.Spec {
	ops := append([]serve.OpSpec{{Op: "filter", Predicate: workloads.SupportPredicate}}, extra...)
	return &serve.Spec{
		Dataset:    serve.DatasetSpec{Name: "tickets"},
		Ops:        ops,
		Policy:     "max-quality",
		Partitions: partitions,
	}
}

// coordinatorContext registers the corpus on a fresh coordinator-side
// pz.Context.
func coordinatorContext(t testing.TB, path string) *pz.Context {
	return contextWith(t, path, pz.Config{Parallelism: 2})
}

// contextWith registers the corpus on a fresh pz.Context built from cfg.
func contextWith(t testing.TB, path string, cfg pz.Config) *pz.Context {
	t.Helper()
	ctx, err := pz.NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RegisterNDJSON("tickets", path); err != nil {
		t.Fatal(err)
	}
	return ctx
}

// optimize builds spec on pzctx and optimizes it as the serving layer
// does, for a direct Scatter call.
func optimize(t testing.TB, pzctx *pz.Context, spec *serve.Spec) *exec.Optimized {
	t.Helper()
	ds, err := spec.Build(pzctx)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := spec.ParsePolicy()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := pzctx.Executor().Optimize(context.Background(), ds.Chain(), policy, pzctx.OptimizerOptionsFor(ds))
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

// sequentialJSON is the ground truth: the same spec run single-process on
// a fresh context, rendered through the serving layer's record encoding.
func sequentialJSON(t testing.TB, path string, spec *serve.Spec) []byte {
	t.Helper()
	ctx := coordinatorContext(t, path)
	seq := *spec
	seq.Partitions = 0
	ds, err := seq.Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := seq.ParsePolicy()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctx.Execute(ds, policy)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := serve.RecordsJSON(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// distributedJSON renders a DistResult through the same encoding.
func distributedJSON(t testing.TB, dres *serve.DistResult) []byte {
	t.Helper()
	raw, err := serve.RecordsJSON(dres.Records)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// startWorker brings up one in-process worker over the shared corpus file,
// optionally wrapping its handler (fault injection), and registers it.
func startWorker(t testing.TB, reg *Registry, name, path string, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	w, err := NewWorker(WorkerConfig{Name: name, Parallelism: 2, ChunkSize: 16,
		Datasets: map[string]string{"tickets": path}})
	if err != nil {
		t.Fatal(err)
	}
	h := http.Handler(w.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	if err := reg.Register(name, srv.URL); err != nil {
		t.Fatal(err)
	}
	return srv
}

func newTestCoordinator(t testing.TB, reg *Registry, cfg Config) *Coordinator {
	t.Helper()
	cfg.Registry = reg
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 2
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestScatterGatherParity: a query scattered across two workers returns
// records byte-identical, in identical order, to the single-process
// sequential scan.
func TestScatterGatherParity(t *testing.T) {
	path := writeTicketCorpus(t, 120)
	reg := NewRegistry(RegistryConfig{})
	startWorker(t, reg, "a", path, nil)
	startWorker(t, reg, "b", path, nil)
	coord := newTestCoordinator(t, reg, Config{})

	spec := ticketSpec(6)
	want := sequentialJSON(t, path, spec)

	dres, ok, err := coord.TryExecute(context.Background(), coordinatorContext(t, path), spec, 6)
	if err != nil || !ok {
		t.Fatalf("TryExecute: ok=%v err=%v", ok, err)
	}
	if got := distributedJSON(t, dres); !bytes.Equal(got, want) {
		t.Fatalf("distributed records diverge from sequential scan:\n got %s\nwant %s", got, want)
	}
	if dres.Workers != 2 || dres.Partitions != 6 {
		t.Errorf("DistResult workers=%d partitions=%d, want 2/6", dres.Workers, dres.Partitions)
	}
	if dres.Elapsed <= 0 || dres.CostUSD <= 0 {
		t.Errorf("missing accounting: elapsed=%v cost=%v", dres.Elapsed, dres.CostUSD)
	}
	c := reg.Counters()
	if c.Get("cluster_partitions_scattered") != 6 {
		t.Errorf("cluster_partitions_scattered = %d, want 6", c.Get("cluster_partitions_scattered"))
	}
	if c.Get("cluster_queries_distributed") != 1 {
		t.Errorf("cluster_queries_distributed = %d, want 1", c.Get("cluster_queries_distributed"))
	}
}

// TestScatterGatherSuffixOps: non-distributable operators (limit is
// order-sensitive) run on the coordinator over the merged prefix output,
// and the end result still matches the sequential run exactly.
func TestScatterGatherSuffixOps(t *testing.T) {
	path := writeTicketCorpus(t, 90)
	reg := NewRegistry(RegistryConfig{})
	startWorker(t, reg, "a", path, nil)
	startWorker(t, reg, "b", path, nil)
	coord := newTestCoordinator(t, reg, Config{})

	spec := ticketSpec(4, serve.OpSpec{Op: "limit", N: 7})
	want := sequentialJSON(t, path, spec)

	dres, ok, err := coord.TryExecute(context.Background(), coordinatorContext(t, path), spec, 4)
	if err != nil || !ok {
		t.Fatalf("TryExecute: ok=%v err=%v", ok, err)
	}
	if got := distributedJSON(t, dres); !bytes.Equal(got, want) {
		t.Fatalf("suffix result diverges from sequential scan:\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(dres.Plan, "1 suffix") {
		t.Errorf("plan %q does not report the suffix split", dres.Plan)
	}
}

// TestClusteredQueryChargesCalibration: a clustered query reports the
// cost of its sentinel calibration, as a local run of the same query
// does, and its trace carries the optimize span.
func TestClusteredQueryChargesCalibration(t *testing.T) {
	path := writeTicketCorpus(t, 200)
	newContext := func() *pz.Context {
		ctx, err := pz.NewContext(pz.Config{Parallelism: 2, SampleSize: 10})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.RegisterNDJSON("tickets", path); err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	spec := ticketSpec(4)
	policy, err := spec.ParsePolicy()
	if err != nil {
		t.Fatal(err)
	}
	localCtx := newContext()
	ds, err := spec.Build(localCtx)
	if err != nil {
		t.Fatal(err)
	}
	local, err := localCtx.Execute(ds, policy)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(RegistryConfig{})
	startWorker(t, reg, "a", path, nil)
	startWorker(t, reg, "b", path, nil)
	coord := newTestCoordinator(t, reg, Config{})
	dres, ok, err := coord.TryExecute(context.Background(), newContext(), spec, 4)
	if err != nil || !ok {
		t.Fatalf("TryExecute: ok=%v err=%v", ok, err)
	}
	if len(dres.Records) != len(local.Records) {
		t.Fatalf("clustered run kept %d records, local %d", len(dres.Records), len(local.Records))
	}
	if math.Abs(dres.CostUSD-local.CostUSD) > 1e-9 {
		t.Errorf("clustered cost $%.6f, local $%.6f", dres.CostUSD, local.CostUSD)
	}
	if opt := dres.Trace.Children[0]; opt.Kind != trace.KindOptimize || opt.CostUSD <= 0 {
		t.Errorf("first root child %s %q costs $%.6f, want the charged optimize span", opt.Kind, opt.Name, opt.CostUSD)
	}
}

// TestClusteredElapsedRepeatable: the same clustered query reports the
// same simulated Elapsed on every run, whichever worker happened to run
// each partition.
func TestClusteredElapsedRepeatable(t *testing.T) {
	path := writeTicketCorpus(t, 120)
	reg := NewRegistry(RegistryConfig{})
	for _, name := range []string{"a", "b", "c"} {
		startWorker(t, reg, name, path, nil)
	}
	coord := newTestCoordinator(t, reg, Config{})
	var first time.Duration
	for run := 0; run < 5; run++ {
		dres, ok, err := coord.TryExecute(context.Background(), coordinatorContext(t, path), ticketSpec(6), 6)
		if err != nil || !ok {
			t.Fatalf("TryExecute: ok=%v err=%v", ok, err)
		}
		if run == 0 {
			first = dres.Elapsed
		} else if dres.Elapsed != first {
			t.Fatalf("run %d: Elapsed %v, run 0 reported %v", run, dres.Elapsed, first)
		}
	}
}

// abortAfterPartialChunk kills the first n /v1/partition requests after
// streaming partial, the bytes a worker got out before dying
// mid-partition.
func abortAfterPartialChunk(n int, partial []byte) func(http.Handler) http.Handler {
	var mu sync.Mutex
	killed := 0
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/v1/partition") {
				mu.Lock()
				kill := killed < n
				if kill {
					killed++
				}
				mu.Unlock()
				if kill {
					rw.Header().Set("Content-Type", "application/x-ndjson")
					rw.WriteHeader(http.StatusOK)
					rw.Write(partial)
					if f, ok := rw.(http.Flusher); ok {
						f.Flush()
					}
					panic(http.ErrAbortHandler)
				}
			}
			next.ServeHTTP(rw, r)
		})
	}
}

// cutRecordChunk returns the first half of a real record chunk: three
// tickets of the corpus at path, as a worker encodes them, cut mid-line.
func cutRecordChunk(t testing.TB, path string) []byte {
	t.Helper()
	r, err := corpus.OpenNDJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var recs []*record.Record
	for len(recs) < 3 {
		d, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		rec, err := corpus.DocRecord(d, schema.TextFile, "tickets")
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	var enc corpus.RecordEncoder
	line, ok := encodeChunk(&enc, 0, recs)
	if !ok {
		t.Fatal("the encoder declines corpus records")
	}
	return line[:len(line)/2]
}

// TestWorkerDeathMidPartition: a worker that dies mid-stream (no
// terminal done chunk) or streams a line that is not a chunk fails the
// attempt and triggers a re-scatter, and the final result is still
// byte-identical to the sequential scan. The worker dies after a whole
// empty chunk, after half of a record chunk, or after a line that is not
// JSON.
func TestWorkerDeathMidPartition(t *testing.T) {
	path := writeTicketCorpus(t, 80)
	spec := ticketSpec(4)
	want := sequentialJSON(t, path, spec)
	for _, tc := range []struct {
		name    string
		partial []byte
	}{
		{"empty-chunk", []byte(`{"seq":0,"records":[]}` + "\n")},
		{"cut-record-chunk", cutRecordChunk(t, path)},
		{"not-json", []byte("worker out of memory\n")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry(RegistryConfig{})
			startWorker(t, reg, "a", path, abortAfterPartialChunk(2, tc.partial))
			startWorker(t, reg, "b", path, nil)
			coord := newTestCoordinator(t, reg, Config{})

			dres, ok, err := coord.TryExecute(context.Background(), coordinatorContext(t, path), spec, 4)
			if err != nil || !ok {
				t.Fatalf("TryExecute: ok=%v err=%v", ok, err)
			}
			if got := distributedJSON(t, dres); !bytes.Equal(got, want) {
				t.Fatalf("result after worker death diverges:\n got %s\nwant %s", got, want)
			}
			c := reg.Counters()
			if c.Get("cluster_partition_failures") < 2 {
				t.Errorf("cluster_partition_failures = %d, want >= 2", c.Get("cluster_partition_failures"))
			}
			if c.Get("cluster_partitions_rescattered") < 2 {
				t.Errorf("cluster_partitions_rescattered = %d, want >= 2", c.Get("cluster_partitions_rescattered"))
			}
		})
	}
}

// TestRemoteElapsedMatchesLocal: a partition reports the same simulated
// Elapsed, to the nanosecond, whether a worker ran it or the coordinator
// ran it as the local fallback.
func TestRemoteElapsedMatchesLocal(t *testing.T) {
	path := writeTicketCorpus(t, 40)
	reg := NewRegistry(RegistryConfig{})
	srv := startWorker(t, reg, "a", path, nil)
	coord := newTestCoordinator(t, reg, Config{})
	req := &PartitionRequest{Spec: *ticketSpec(0), Partition: 0, Offset: 0, Docs: 40}

	local, err := ExecutePartition(context.Background(), req, path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Records) == 0 {
		t.Fatal("the partition kept no records")
	}
	remote, err := coord.remote(context.Background(), WorkerRef{Name: "a", URL: srv.URL}, req, local.Records[0].Schema())
	if err != nil {
		t.Fatal(err)
	}
	if remote.Elapsed != local.Elapsed || remote.Elapsed%time.Millisecond == 0 {
		t.Errorf("remote Elapsed %v, local %v", remote.Elapsed, local.Elapsed)
	}
	if len(remote.Records) != len(local.Records) {
		t.Errorf("remote partition kept %d records, local %d", len(remote.Records), len(local.Records))
	}
}

// TestNonStreamableChampionDeclines: a min-cost triage query optimizes to
// the adaptive embed-filter, which thresholds on whole-batch statistics —
// partitioning it would change the kept set, so the coordinator must
// refuse to scatter and let the query run locally.
func TestNonStreamableChampionDeclines(t *testing.T) {
	path := writeTicketCorpus(t, 60)
	reg := NewRegistry(RegistryConfig{})
	startWorker(t, reg, "a", path, nil)
	coord := newTestCoordinator(t, reg, Config{})

	spec := ticketSpec(4)
	spec.Policy = "min-cost"
	opt := optimize(t, coordinatorContext(t, path), spec)
	dres, reason, err := coord.Scatter(context.Background(), spec, opt, 4)
	if err != nil || reason != "not_streamable" || dres != nil {
		t.Fatalf("non-streamable champion: dres=%v reason=%q err=%v, want not_streamable", dres, reason, err)
	}
	if got := reg.Counters().Get("cluster_queries_not_streamable"); got != 1 {
		t.Errorf("cluster_queries_not_streamable = %d, want 1", got)
	}
}

// TestEmptyPoolDeclines: with no registered workers the coordinator
// declines the query (no_workers) so the serving layer runs it locally.
func TestEmptyPoolDeclines(t *testing.T) {
	path := writeTicketCorpus(t, 40)
	reg := NewRegistry(RegistryConfig{})
	coord := newTestCoordinator(t, reg, Config{})

	spec := ticketSpec(4)
	opt := optimize(t, coordinatorContext(t, path), spec)
	dres, reason, err := coord.Scatter(context.Background(), spec, opt, 4)
	if err != nil || reason != "no_workers" || dres != nil {
		t.Fatalf("empty pool: dres=%v reason=%q err=%v, want no_workers", dres, reason, err)
	}
	if got := reg.Counters().Get("cluster_queries_local_fallback"); got != 1 {
		t.Errorf("cluster_queries_local_fallback = %d, want 1", got)
	}
	if _, ok, err := coord.TryExecute(context.Background(), coordinatorContext(t, path), spec, 4); ok || err != nil {
		t.Errorf("TryExecute on an empty pool: ok=%v err=%v, want a decline", ok, err)
	}
}

// TestScatterDeclineReasons: a fan-out or partition index below 2 and a
// source that is not an NDJSON corpus decline with their own reasons,
// before any worker is asked.
func TestScatterDeclineReasons(t *testing.T) {
	path := writeTicketCorpus(t, 40)
	reg := NewRegistry(RegistryConfig{})
	startWorker(t, reg, "a", path, nil)
	coord := newTestCoordinator(t, reg, Config{})
	pzctx := coordinatorContext(t, path)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.txt"), []byte("The ticket is urgent."), 0o644); err != nil {
		t.Fatal(err)
	}
	folder := ticketSpec(4)
	folder.Dataset = serve.DatasetSpec{Name: "notes", Dir: dir}
	for _, tc := range []struct {
		name   string
		spec   *serve.Spec
		fanout int
		want   string
	}{
		{"fan-out 1", ticketSpec(0), 1, "one_partition"},
		{"folder", folder, 4, "not_ndjson"},
	} {
		dres, reason, err := coord.Scatter(context.Background(), tc.spec, optimize(t, pzctx, tc.spec), tc.fanout)
		if err != nil || reason != tc.want || dres != nil {
			t.Errorf("%s: dres=%v reason=%q err=%v, want %s", tc.name, dres, reason, err, tc.want)
		}
	}
	if got := reg.Counters().Get("cluster_partitions_scattered"); got != 0 {
		t.Errorf("cluster_partitions_scattered = %d, want 0", got)
	}
}

// TestAllWorkersLostLocalFallback: when the only worker fails and is
// deregistered mid-query, the coordinator finishes every partition
// locally — the query completes, byte-identical, with zero workers.
func TestAllWorkersLostLocalFallback(t *testing.T) {
	path := writeTicketCorpus(t, 60)
	reg := NewRegistry(RegistryConfig{MaxFailures: 1})
	broken := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/v1/partition") {
				writeError(rw, http.StatusInternalServerError, fmt.Errorf("synthetic worker crash"))
				return
			}
			next.ServeHTTP(rw, r)
		})
	}
	startWorker(t, reg, "a", path, broken)
	coord := newTestCoordinator(t, reg, Config{})

	spec := ticketSpec(4)
	want := sequentialJSON(t, path, spec)

	dres, ok, err := coord.TryExecute(context.Background(), coordinatorContext(t, path), spec, 4)
	if err != nil || !ok {
		t.Fatalf("TryExecute: ok=%v err=%v", ok, err)
	}
	if got := distributedJSON(t, dres); !bytes.Equal(got, want) {
		t.Fatalf("local-fallback result diverges:\n got %s\nwant %s", got, want)
	}
	if dres.Workers != 0 {
		t.Errorf("DistResult workers = %d, want 0 (pool drained)", dres.Workers)
	}
	c := reg.Counters()
	if c.Get("cluster_workers_lost") != 1 {
		t.Errorf("cluster_workers_lost = %d, want 1", c.Get("cluster_workers_lost"))
	}
	if c.Get("cluster_partitions_local") != 4 {
		t.Errorf("cluster_partitions_local = %d, want 4", c.Get("cluster_partitions_local"))
	}
	if reg.Len() != 0 {
		t.Errorf("registry still has %d workers", reg.Len())
	}
}

// TestCancellationPropagates: canceling the coordinator's context aborts
// the scatter promptly and cancels the in-flight worker request.
func TestCancellationPropagates(t *testing.T) {
	path := writeTicketCorpus(t, 60)
	reg := NewRegistry(RegistryConfig{})
	unblocked := make(chan struct{}, 8)
	hang := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/v1/partition") {
				// Consume the request the way a real worker does (decode,
				// then execute): the server only watches for client
				// disconnects once the body has been read.
				_, _ = io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				unblocked <- struct{}{}
				return
			}
			next.ServeHTTP(rw, r)
		})
	}
	startWorker(t, reg, "a", path, hang)
	coord := newTestCoordinator(t, reg, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := coord.TryExecute(ctx, coordinatorContext(t, path), ticketSpec(4), 4)
	if err == nil || ctx.Err() == nil {
		t.Fatalf("canceled scatter returned err=%v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to unwind", elapsed)
	}
	select {
	case <-unblocked:
		// The worker saw the request context die: cancellation crossed the
		// wire to the in-flight partition.
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight worker request never observed cancellation")
	}
}

// TestStragglerReissue: a partition stuck on a slow worker is
// speculatively re-issued, the fast duplicate wins, and the output stays
// byte-identical.
func TestStragglerReissue(t *testing.T) {
	path := writeTicketCorpus(t, 80)
	reg := NewRegistry(RegistryConfig{})
	slow := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/v1/partition") {
				time.Sleep(600 * time.Millisecond)
			}
			next.ServeHTTP(rw, r)
		})
	}
	startWorker(t, reg, "a", path, slow)
	startWorker(t, reg, "b", path, nil)
	coord := newTestCoordinator(t, reg, Config{StragglerAfter: 100 * time.Millisecond})

	spec := ticketSpec(4)
	want := sequentialJSON(t, path, spec)

	dres, ok, err := coord.TryExecute(context.Background(), coordinatorContext(t, path), spec, 4)
	if err != nil || !ok {
		t.Fatalf("TryExecute: ok=%v err=%v", ok, err)
	}
	if got := distributedJSON(t, dres); !bytes.Equal(got, want) {
		t.Fatalf("straggler run diverges:\n got %s\nwant %s", got, want)
	}
	if got := reg.Counters().Get("cluster_straggler_reissues"); got < 1 {
		t.Errorf("cluster_straggler_reissues = %d, want >= 1", got)
	}
}

// TestTinyStragglerAfterDoesNotPanic: a StragglerAfter small enough that
// halving it truncates to zero used to panic time.NewTicker inside the
// scheduler; the tick interval is floored now, and the query still
// completes byte-identically.
func TestTinyStragglerAfterDoesNotPanic(t *testing.T) {
	path := writeTicketCorpus(t, 40)
	reg := NewRegistry(RegistryConfig{})
	startWorker(t, reg, "a", path, nil)
	coord := newTestCoordinator(t, reg, Config{StragglerAfter: time.Nanosecond})

	spec := ticketSpec(2)
	want := sequentialJSON(t, path, spec)

	dres, ok, err := coord.TryExecute(context.Background(), coordinatorContext(t, path), spec, 2)
	if err != nil || !ok {
		t.Fatalf("TryExecute: ok=%v err=%v", ok, err)
	}
	if got := distributedJSON(t, dres); !bytes.Equal(got, want) {
		t.Fatalf("tiny-straggler run diverges:\n got %s\nwant %s", got, want)
	}
}

// TestRegistryLifecycle: heartbeats reset failure counts, and MaxFailures
// consecutive failures deregister a worker as lost.
func TestRegistryLifecycle(t *testing.T) {
	reg := NewRegistry(RegistryConfig{MaxFailures: 3})
	if err := reg.Register("", "http://x"); err == nil {
		t.Error("nameless registration accepted")
	}
	if err := reg.Register("w", "not a url"); err == nil {
		t.Error("invalid URL accepted")
	}
	if err := reg.Register("w", "http://localhost:9"); err != nil {
		t.Fatal(err)
	}
	reg.NoteFailure("w")
	reg.NoteFailure("w")
	if v := reg.Views(); len(v) != 1 || v[0].Failures != 2 {
		t.Fatalf("views = %+v, want one worker with 2 failures", v)
	}
	// Re-registration is the heartbeat: the failure count resets.
	if err := reg.Register("w", "http://localhost:9"); err != nil {
		t.Fatal(err)
	}
	if v := reg.Views(); v[0].Failures != 0 {
		t.Fatalf("heartbeat did not reset failures: %+v", v)
	}
	for i := 0; i < 3; i++ {
		reg.NoteFailure("w")
	}
	if reg.Len() != 0 {
		t.Fatalf("worker survived MaxFailures consecutive failures")
	}
	c := reg.Counters()
	if c.Get("cluster_workers_lost") != 1 || c.Get("cluster_workers_registered") != 1 {
		t.Errorf("counters = %v", c.Snapshot())
	}
	if c.Get("cluster_workers_healthy") != 0 {
		t.Errorf("healthy gauge = %d, want 0", c.Get("cluster_workers_healthy"))
	}
}

// TestRegistryHealthChecks: CheckOnce keeps responsive workers and
// deregisters dead ones through the shared failure accounting.
func TestRegistryHealthChecks(t *testing.T) {
	alive := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, map[string]string{"status": "ok"})
	}))
	defer alive.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	reg := NewRegistry(RegistryConfig{MaxFailures: 1, CheckTimeout: 500 * time.Millisecond})
	if err := reg.Register("alive", alive.URL); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("dead", deadURL); err != nil {
		t.Fatal(err)
	}
	reg.CheckOnce()
	refs := reg.Healthy()
	if len(refs) != 1 || refs[0].Name != "alive" {
		t.Fatalf("healthy pool after check = %+v, want [alive]", refs)
	}
	c := reg.Counters()
	if c.Get("cluster_health_check_failures") != 1 || c.Get("cluster_workers_lost") != 1 {
		t.Errorf("counters = %v", c.Snapshot())
	}
	if c.Get("cluster_workers_healthy") != 1 {
		t.Errorf("healthy gauge = %d, want 1", c.Get("cluster_workers_healthy"))
	}
	// The loop plumbing starts and stops cleanly.
	reg.StartHealthLoop(10 * time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	reg.Stop()
}

// TestRegistryHandler drives the worker-management HTTP API end to end.
func TestRegistryHandler(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	srv := httptest.NewServer(RegistryHandler(reg))
	defer srv.Close()

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post("/v1/workers/register", `{"name":"w1","url":"http://localhost:9"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = post("/v1/workers/register", `{"name":"","url":"http://x"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid register status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err := http.Get(srv.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var views []serve.WorkerView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(views) != 1 || views[0].Name != "w1" {
		t.Fatalf("views = %+v", views)
	}

	resp = post("/v1/workers/deregister", `{"name":"w1"}`)
	resp.Body.Close()
	if reg.Len() != 0 {
		t.Fatalf("worker still registered after deregister")
	}
}

// TestRemoteGathersChunksInSeqOrder: the coordinator reads a chunk line
// longer than its read buffer and gathers chunks sent in seq order, and
// fails the attempt when a record chunk arrives out of seq (reordered,
// repeated, or skipped) or the done chunk's seq is not the number of
// record chunks.
func TestRemoteGathersChunksInSeqOrder(t *testing.T) {
	recs := domainRecords(t, corpus.DomainSupport, 300)
	var enc corpus.RecordEncoder
	long, _ := encodeChunk(&enc, 0, recs[:280])
	if len(long) <= 64<<10 {
		t.Fatalf("a %d-byte chunk fits the read buffer", len(long))
	}
	short, _ := encodeChunk(&enc, 1, recs[280:])
	done := func(seq int) []byte { return fmt.Appendf(nil, `{"seq":%d,"done":true,"elapsed_sim_ns":5}`+"\n", seq) }
	coord := newTestCoordinator(t, NewRegistry(RegistryConfig{}), Config{})
	for _, tc := range []struct {
		name   string
		stream [][]byte
		ok     bool
	}{
		{"in-order", [][]byte{long, short, done(2)}, true},
		{"reordered", [][]byte{short, long, done(2)}, false},
		{"repeated", [][]byte{long, long, short, done(3)}, false},
		{"first-skipped", [][]byte{short, done(2)}, false},
		{"last-skipped", [][]byte{long, done(2)}, false},
		{"done-early", [][]byte{long, short, done(1)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				rw.Write(bytes.Join(tc.stream, nil))
			}))
			defer srv.Close()
			res, err := coord.remote(context.Background(), WorkerRef{Name: "a", URL: srv.URL}, &PartitionRequest{Docs: 1}, schema.TextFile)
			if !tc.ok {
				if err == nil {
					t.Fatalf("gathered %d records from an out-of-seq stream", len(res.Records))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !sameRecords(res.Records, recs) || res.Elapsed != 5 {
				t.Fatalf("gathered %d records in Elapsed %v, want the %d sent", len(res.Records), res.Elapsed, len(recs))
			}
		})
	}
}

// repeatFirstChunk makes every partition stream send its first line,
// record chunk 0, twice, as a worker that re-sends a chunk would.
func repeatFirstChunk(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/v1/partition") {
			next.ServeHTTP(rw, r)
			return
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		first, _, _ := bytes.Cut(body, []byte("\n"))
		rw.WriteHeader(rec.Code)
		rw.Write(append(append(first, '\n'), body...))
	})
}

// TestRepeatedChunkIsRescattered: a worker that sends a record chunk
// twice fails the attempt, like a truncated stream, and the partition is
// re-scattered, so the query's records are exactly the sequential scan's
// rather than carrying the chunk's records twice.
func TestRepeatedChunkIsRescattered(t *testing.T) {
	path := writeTicketCorpus(t, 80)
	spec := ticketSpec(4)
	want := sequentialJSON(t, path, spec)
	reg := NewRegistry(RegistryConfig{})
	startWorker(t, reg, "a", path, repeatFirstChunk)
	startWorker(t, reg, "b", path, nil)
	coord := newTestCoordinator(t, reg, Config{})

	dres, ok, err := coord.TryExecute(context.Background(), coordinatorContext(t, path), spec, 4)
	if err != nil || !ok {
		t.Fatalf("TryExecute: ok=%v err=%v", ok, err)
	}
	if got := distributedJSON(t, dres); !bytes.Equal(got, want) {
		t.Fatalf("result with a repeated chunk diverges:\n got %s\nwant %s", got, want)
	}
	if n := reg.Counters().Get("cluster_partition_failures"); n < 1 {
		t.Errorf("cluster_partition_failures = %d, want >= 1", n)
	}
}

// TestCoordinatorKeepsOneReaderPerWorker: the coordinator keeps the
// readers of finished streams, whose buffers grew to a chunk's size, for
// the next streams, up to one per registered worker.
func TestCoordinatorKeepsOneReaderPerWorker(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	coord := newTestCoordinator(t, reg, Config{})
	first := coord.takeReader()
	coord.keepReader(first)
	if len(coord.readers) != 0 {
		t.Fatalf("kept %d readers with no worker registered", len(coord.readers))
	}
	for _, name := range []string{"a", "b"} {
		if err := reg.Register(name, "http://"+name); err != nil {
			t.Fatal(err)
		}
	}
	readers := []*chunkReader{first, coord.takeReader(), coord.takeReader()}
	for _, cr := range readers {
		coord.keepReader(cr)
	}
	if len(coord.readers) != 2 {
		t.Fatalf("kept %d readers for 2 workers", len(coord.readers))
	}
	if cr := coord.takeReader(); cr != readers[1] {
		t.Fatal("a stream does not reuse a kept reader")
	}
}

// TestWireRecordRoundTrip pushes every field type (including Bytes, which
// JSON flattens to base64, StringList, which encoding/json decodes as
// []any, and an Int beyond a float64's 53 bits) through the worker's
// encoder and back through both decoding paths, the fast one and the
// encoding/json reference, and requires value identity. An Int that fits
// a float64 also crosses through plain json.Unmarshal, whose numbers are
// float64s, into DecodeRecords.
func TestWireRecordRoundTrip(t *testing.T) {
	s, err := schema.New("everything", "all field types",
		schema.Field{Name: "name", Type: schema.String, Desc: "a string"},
		schema.Field{Name: "count", Type: schema.Int, Desc: "an int"},
		schema.Field{Name: "ratio", Type: schema.Float, Desc: "a float"},
		schema.Field{Name: "urgent", Type: schema.Bool, Desc: "a bool"},
		schema.Field{Name: "tags", Type: schema.StringList, Desc: "a list"},
		schema.Field{Name: "blob", Type: schema.Bytes, Desc: "raw bytes"},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int64{7, 1<<53 + 1} {
		rec, err := record.New(s, map[string]any{
			"name": "r1", "count": count, "ratio": 2.5, "urgent": true,
			"tags": []string{"x", "y"}, "blob": []byte{0x00, 0xff, 0x10},
		})
		if err != nil {
			t.Fatal(err)
		}
		rec.SetSource("tickets")
		truth := &corpus.Truth{
			Topics:  []string{"billing"},
			Labels:  map[string]bool{"urgent": true},
			Fields:  map[string]string{"customer": "acme"},
			Numbers: map[string]float64{"score": 0.75},
		}
		rec.SetTruth(truth)
		recs := []*record.Record{rec}

		var enc corpus.RecordEncoder
		line, ok := encodeChunk(&enc, 0, recs)
		if !ok {
			t.Fatal("the encoder declines the record")
		}
		if want := jsonChunk(t, 0, recs); !bytes.Equal(line, want) {
			t.Fatalf("encoder writes\n%s\nencoding/json\n%s", line, want)
		}
		var dec corpus.RecordsDecoder
		_, fast, ok := decodeRecordChunk(&dec, line, s, nil)
		if !ok {
			t.Fatalf("the fast path declines %s", line)
		}
		ch, err := unmarshalChunk(line)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := DecodeRecords(s, ch.Records)
		if err != nil {
			t.Fatal(err)
		}
		paths := map[string][]*record.Record{"fast": fast, "encoding/json": ref}
		if count < 1<<53 {
			data, err := json.Marshal(PartitionChunk{Records: EncodeRecords(recs)})
			if err != nil {
				t.Fatal(err)
			}
			var plain PartitionChunk
			if err := json.Unmarshal(data, &plain); err != nil {
				t.Fatal(err)
			}
			if paths["json.Unmarshal"], err = DecodeRecords(s, plain.Records); err != nil {
				t.Fatal(err)
			}
		}
		for path, back := range paths {
			if len(back) != 1 {
				t.Fatalf("%s: decoded %d records", path, len(back))
			}
			if got, want := back[0].Values(), rec.Values(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: values diverged over the wire:\n got %#v\nwant %#v", path, got, want)
			}
			if back[0].Source() != "tickets" {
				t.Errorf("%s: source = %q", path, back[0].Source())
			}
			if got := corpus.TruthOf(back[0]); !reflect.DeepEqual(got, truth) {
				t.Errorf("%s: truth diverged over the wire:\n got %#v\nwant %#v", path, got, truth)
			}
		}
	}
}

// TestServeDistributedQuery wires the full stack the way cmd/pzserve
// does — serving layer + coordinator + registry + two worker daemons —
// and checks a partitioned HTTP query returns the sequential answer and
// /metrics reports the cluster.
func TestServeDistributedQuery(t *testing.T) {
	path := writeTicketCorpus(t, 100)
	counters := metrics.NewCounters()
	reg := NewRegistry(RegistryConfig{Counters: counters})
	startWorker(t, reg, "a", path, nil)
	startWorker(t, reg, "b", path, nil)
	coord := newTestCoordinator(t, reg, Config{})

	pzctx := coordinatorContext(t, path)
	srv, err := serve.New(serve.Config{Context: pzctx, Cluster: coord, Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mux := http.NewServeMux()
	mux.Handle("/v1/workers", RegistryHandler(reg))
	mux.Handle("/v1/workers/", RegistryHandler(reg))
	mux.Handle("/", srv.Handler())
	front := httptest.NewServer(mux)
	defer front.Close()

	spec := ticketSpec(4)
	want := sequentialJSON(t, path, spec)

	view := postQuery(t, front.URL, spec)
	if !bytes.Equal([]byte(view.Result.Records), want) {
		t.Fatalf("served distributed records diverge:\n got %s\nwant %s", view.Result.Records, want)
	}
	if !strings.Contains(view.Result.Plan, "cluster-scatter") {
		t.Errorf("plan %q does not show scatter execution", view.Result.Plan)
	}
	if view.Result.PlanCached || view.Result.Candidates <= 0 {
		t.Errorf("first run: plan_cached=%v candidates=%d, want an optimized plan", view.Result.PlanCached, view.Result.Candidates)
	}
	// A repeat scatters the cached plan and returns the same records.
	again := postQuery(t, front.URL, spec)
	if !again.Result.PlanCached || again.Result.Candidates != view.Result.Candidates {
		t.Errorf("repeat run: plan_cached=%v candidates=%d, want the cached plan of %d candidates",
			again.Result.PlanCached, again.Result.Candidates, view.Result.Candidates)
	}
	if !bytes.Equal(again.Result.Records, view.Result.Records) {
		t.Errorf("repeat run records diverge:\n got %s\nwant %s", again.Result.Records, view.Result.Records)
	}

	// The job's trace must be the coordinator's span tree: a query root
	// over one span per scattered partition, each embedding the executing
	// worker's own spans, reconciling with the job's reported stats.
	tresp, err := http.Get(front.URL + "/v1/jobs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", tresp.StatusCode)
	}
	var doc trace.Document
	if err := json.NewDecoder(tresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != trace.SchemaVersion || doc.JobID != view.ID {
		t.Errorf("trace document = v%d job %q, want v%d job %q",
			doc.SchemaVersion, doc.JobID, trace.SchemaVersion, view.ID)
	}
	root := doc.Trace
	if root == nil || root.Kind != trace.KindQuery || root.Name != "cluster-scatter" {
		t.Fatalf("trace root = %+v, want a cluster-scatter query span", root)
	}
	parts := root.FindAll(trace.KindPartition)
	if len(parts) != 4 {
		t.Fatalf("trace has %d partition spans, want 4", len(parts))
	}
	workerSpans := root.FindAll(trace.KindWorker)
	if len(workerSpans) == 0 {
		t.Fatal("coordinator trace embeds no worker spans")
	}
	var partOut int
	for _, p := range parts {
		partOut += p.RecordsOut
	}
	if suffix := root.FindAll(trace.KindSuffix); len(suffix) == 1 {
		if suffix[0].RecordsIn != partOut {
			t.Errorf("suffix consumed %d records, scatter produced %d", suffix[0].RecordsIn, partOut)
		}
	}
	if root.RecordsOut != view.Result.Count {
		t.Errorf("trace root out = %d records, job reported %d", root.RecordsOut, view.Result.Count)
	}
	if root.SimMS != view.Result.ElapsedSimMS {
		t.Errorf("trace root sim = %d ms, job reported %d", root.SimMS, view.Result.ElapsedSimMS)
	}

	mresp, err := http.Get(front.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Cluster == nil || len(m.Cluster.Workers) != 2 {
		t.Fatalf("metrics cluster section = %+v, want 2 workers", m.Cluster)
	}
	if m.Counters["cluster_queries_distributed"] != 2 {
		t.Errorf("cluster_queries_distributed = %d, want 2", m.Counters["cluster_queries_distributed"])
	}

	wresp, err := http.Get(front.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	var views []serve.WorkerView
	if err := json.NewDecoder(wresp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 {
		t.Errorf("worker listing = %+v, want 2", views)
	}
}

// postQuery submits spec to a serving front end with ?wait=1 and returns
// the finished job.
func postQuery(t testing.TB, url string, spec *serve.Spec) serve.JobView {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || view.Status != serve.StatusDone || view.Result == nil {
		t.Fatalf("query status %d: job %s %s: %s", resp.StatusCode, view.ID, view.Status, view.Error)
	}
	return view
}

// sampledServer wires a serving front end with sentinel calibration
// (SampleSize 10) to a coordinator over two workers.
func sampledServer(t testing.TB, path string) (*serve.Server, *pz.Context, string) {
	t.Helper()
	reg := NewRegistry(RegistryConfig{})
	startWorker(t, reg, "a", path, nil)
	startWorker(t, reg, "b", path, nil)
	pzctx := contextWith(t, path, pz.Config{Parallelism: 2, SampleSize: 10})
	srv, err := serve.New(serve.Config{Context: pzctx, Cluster: newTestCoordinator(t, reg, Config{}), Counters: reg.Counters()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	front := httptest.NewServer(srv.Handler())
	t.Cleanup(front.Close)
	return srv, pzctx, front.URL
}

// TestClusteredQueryReusesCachedPlan: a repeated scatterable query reads
// the plan cache, so its second run pays no calibration, and both runs
// return a local run's records.
func TestClusteredQueryReusesCachedPlan(t *testing.T) {
	path := writeTicketCorpus(t, 200)
	srv, pzctx, url := sampledServer(t, path)
	spec := ticketSpec(4)

	first := postQuery(t, url, spec)
	second := postQuery(t, url, spec)
	if !strings.Contains(second.Result.Plan, "cluster-scatter") || !second.Result.PlanCached {
		t.Fatalf("second run: plan %q plan_cached=%v, want a cached scatter", second.Result.Plan, second.Result.PlanCached)
	}
	c := srv.Counters()
	if hits, misses := c.Get("plan_cache_hits"), c.Get("plan_cache_misses"); hits != 1 || misses != 1 {
		t.Errorf("plan cache hits=%d misses=%d, want 1 and 1", hits, misses)
	}
	if size := srv.PlanCache().Stats().Size; size != 1 {
		t.Errorf("plan cache holds %d plans, want 1", size)
	}
	calibration := firstOptimizeCost(t, url, first.ID)
	if calibration <= 0 {
		t.Fatalf("first run's optimize span costs $%.6f, want a charged calibration", calibration)
	}
	if math.Abs(second.Result.CostUSD-(first.Result.CostUSD-calibration)) > 1e-9 {
		t.Errorf("second run billed $%.6f, want $%.6f - $%.6f", second.Result.CostUSD, first.Result.CostUSD, calibration)
	}
	// The coordinator's engine pays the one calibration; workers pay for
	// the partitions.
	if total := pzctx.TotalCost(); math.Abs(total-calibration) > 1e-9 {
		t.Errorf("coordinator TotalCost $%.6f, want one calibration, $%.6f", total, calibration)
	}
	t.Logf("billed $%.6f then $%.6f; calibration $%.6f", first.Result.CostUSD, second.Result.CostUSD, calibration)
	local := contextWith(t, path, pz.Config{Parallelism: 2, SampleSize: 10})
	want := localJSON(t, local, spec)
	for i, v := range []serve.JobView{first, second} {
		if !bytes.Equal(v.Result.Records, want) {
			t.Errorf("run %d records diverge from the local run:\n got %s\nwant %s", i+1, v.Result.Records, want)
		}
	}
}

// TestClusteredCostGaugeMatchesBilling: the server's total cost gauges,
// JSON and Prometheus, report what the tenants were billed across
// scattered runs (first calibrated, then cached) and a declined local
// run, not just what the coordinator's own engine spent.
func TestClusteredCostGaugeMatchesBilling(t *testing.T) {
	path := writeTicketCorpus(t, 200)
	_, pzctx, url := sampledServer(t, path)
	spec := ticketSpec(4)
	declined := ticketSpec(4)
	declined.Policy = "min-cost"
	var billed float64
	for _, s := range []*serve.Spec{spec, spec, declined} {
		billed += postQuery(t, url, s).Result.CostUSD
	}
	if local := pzctx.TotalCost(); billed-local < 0.1 {
		t.Fatalf("billed $%.6f, engine spent $%.6f: the scatters were not charged to workers", billed, local)
	}
	resp, err := http.Get(url + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.TotalCost-billed) > 1e-9 {
		t.Errorf("JSON total_cost_usd $%.6f, billed $%.6f", m.TotalCost, billed)
	}
	presp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	text, err := io.ReadAll(presp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var prom float64
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, "pz_total_cost_usd "); ok {
			if prom, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if math.Abs(prom-billed) > 1e-9 {
		t.Errorf("pz_total_cost_usd $%.6f, billed $%.6f", prom, billed)
	}
}

// TestDeclinedScatterChargesOnce: a min-cost query the coordinator
// declines runs the plan the serving layer chose, so the engine spends
// what the query is billed, cache hit included, and the trace says why
// it ran locally.
func TestDeclinedScatterChargesOnce(t *testing.T) {
	path := writeTicketCorpus(t, 200)
	_, pzctx, url := sampledServer(t, path)
	spec := ticketSpec(4)
	spec.Policy = "min-cost"

	var billed float64
	for run := 0; run < 2; run++ {
		view := postQuery(t, url, spec)
		if strings.Contains(view.Result.Plan, "cluster-scatter") {
			t.Fatalf("run %d scattered a min-cost plan: %s", run, view.Result.Plan)
		}
		billed += view.Result.CostUSD
		if got := jobTrace(t, url, view.ID).Attrs["cluster_declined"]; got != "not_streamable" {
			t.Errorf("run %d: cluster_declined=%q, want not_streamable", run, got)
		}
	}
	if total := pzctx.TotalCost(); math.Abs(total-billed) > 1e-9 {
		t.Errorf("TotalCost $%.6f, billed $%.6f", total, billed)
	}
}

// jobTrace fetches a finished job's trace root.
func jobTrace(t testing.TB, url, id string) *trace.Span {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc trace.Document
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Trace == nil {
		t.Fatalf("job %s has no trace", id)
	}
	return doc.Trace
}

// firstOptimizeCost is the cost of a job's optimize span, 0 when its
// trace has none.
func firstOptimizeCost(t testing.TB, url, id string) float64 {
	t.Helper()
	if spans := jobTrace(t, url, id).FindAll(trace.KindOptimize); len(spans) > 0 {
		return spans[0].CostUSD
	}
	return 0
}

// TestSpecValidation: fan-out validation at the serving edge.
func TestSpecValidation(t *testing.T) {
	if _, err := serve.ParseSpec([]byte(`{"dataset":{"name":"x"},"partitions":-1}`)); err == nil {
		t.Error("negative spec partitions accepted by ParseSpec")
	}
	if _, err := NewCoordinator(Config{}); err == nil {
		t.Error("coordinator without registry accepted")
	}
}

// TestWorkerMetricsExposition: after executing partitions, a worker's
// /metrics serves Prometheus text (the same renderer pzserve uses) with
// the per-partition latency histogram, and ?format=json keeps the
// structured snapshot.
func TestWorkerMetricsExposition(t *testing.T) {
	path := writeTicketCorpus(t, 60)
	reg := NewRegistry(RegistryConfig{})
	wsrv := startWorker(t, reg, "a", path, nil)
	coord := newTestCoordinator(t, reg, Config{})
	if _, ok, err := coord.TryExecute(context.Background(), coordinatorContext(t, path), ticketSpec(3), 3); err != nil || !ok {
		t.Fatalf("TryExecute: ok=%v err=%v", ok, err)
	}

	resp, err := http.Get(wsrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.PromContentType {
		t.Errorf("content type %q, want %q", ct, metrics.PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, frag := range []string{
		"# TYPE pz_worker_partition_sim_seconds histogram",
		`pz_worker_partition_sim_seconds_bucket{le="+Inf"} 3`,
		"pz_worker_partition_sim_seconds_count 3",
		"# TYPE pz_worker_partitions_served gauge\npz_worker_partitions_served 3",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("worker /metrics missing %q:\n%s", frag, text)
		}
	}

	jresp, err := http.Get(wsrv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var m struct {
		Worker     string                           `json:"worker"`
		Counters   map[string]int64                 `json:"counters"`
		Histograms map[string]metrics.HistogramView `json:"histograms"`
	}
	if err := json.NewDecoder(jresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Worker != "a" || m.Counters["worker_partitions_served"] != 3 {
		t.Errorf("json metrics = %+v", m)
	}
	if h, ok := m.Histograms["worker_partition_sim_seconds"]; !ok || h.Count != 3 {
		t.Errorf("json histogram view = %+v", m.Histograms)
	}
}

// TestDistributedTraceReconciles: the coordinator's trace reconciles
// with its own DistResult — partition spans carry the executing worker
// and their sim times fold into the cluster clock (scatter = slowest
// executor), with worker-side stage spans embedded under each.
func TestDistributedTraceReconciles(t *testing.T) {
	path := writeTicketCorpus(t, 80)
	reg := NewRegistry(RegistryConfig{})
	startWorker(t, reg, "a", path, nil)
	startWorker(t, reg, "b", path, nil)
	coord := newTestCoordinator(t, reg, Config{})

	dres, ok, err := coord.TryExecute(context.Background(), coordinatorContext(t, path), ticketSpec(4), 4)
	if err != nil || !ok {
		t.Fatalf("TryExecute: ok=%v err=%v", ok, err)
	}
	root := dres.Trace
	if root == nil || root.Kind != trace.KindQuery {
		t.Fatalf("DistResult trace root = %+v", root)
	}
	if root.SimMS != dres.Elapsed.Milliseconds() {
		t.Errorf("root sim %d ms != DistResult elapsed %d ms", root.SimMS, dres.Elapsed.Milliseconds())
	}
	if root.RecordsOut != len(dres.Records) {
		t.Errorf("root out %d != %d gathered records", root.RecordsOut, len(dres.Records))
	}
	parts := root.FindAll(trace.KindPartition)
	if len(parts) != 4 {
		t.Fatalf("%d partition spans, want 4", len(parts))
	}
	var outSum int
	for _, p := range parts {
		if p.Worker == "" {
			t.Errorf("partition %v names no executing worker", p.Partition)
		}
		if len(p.FindAll(trace.KindWorker)) == 0 {
			t.Errorf("partition %v embeds no worker-side spans", p.Partition)
		}
		outSum += p.RecordsOut
	}
	if outSum != len(dres.Records) {
		t.Errorf("partition outputs sum to %d, gathered %d", outSum, len(dres.Records))
	}
	// Worker-side spans carry their own stage detail across the wire.
	for _, ws := range root.FindAll(trace.KindWorker) {
		if len(ws.Stages()) == 0 {
			t.Errorf("embedded worker span %q has no stage spans", ws.Worker)
		}
	}
}

func TestWorkerRejectsOversizedBody(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Name: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	req := PartitionRequest{Spec: *ticketSpec(1, serve.OpSpec{Op: "filter",
		Predicate: strings.Repeat("urgent ", serve.MaxRequestBytes/7+1)})}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/partition", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("%d-byte request: status %d (%s), want 413", len(body), resp.StatusCode, msg)
	}
}

func TestRegistryRejectsOversizedBody(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	srv := httptest.NewServer(RegistryHandler(reg))
	defer srv.Close()
	name := strings.Repeat("w", serve.MaxRequestBytes+1)
	for _, path := range []string{"/v1/workers/register", "/v1/workers/deregister"} {
		body := `{"name":"` + name + `","url":"http://localhost:9"}`
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body: status %d, want 413", path, len(body), resp.StatusCode)
		}
	}
	if reg.Len() != 0 {
		t.Fatalf("oversized registration registered %d workers", reg.Len())
	}
}
