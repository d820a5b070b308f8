// Package repro_test holds the top-level benchmark harness: one testing.B
// benchmark per paper artifact (DESIGN.md experiment index E1-E8) plus the
// ablations. Each benchmark runs the corresponding experiment and reports
// the reproduced quantities as custom metrics (records, simulated seconds,
// dollars), so `go test -bench=. -benchmem` regenerates the paper's
// numbers alongside engineering costs.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/llm"
	"repro/internal/optimizer"
	"repro/internal/serve"
	"repro/internal/workloads"
	"repro/pz"
)

// BenchmarkE1ScientificDiscovery reproduces the §3 headline workload:
// 11 papers -> filter(colorectal cancer) -> convert(ClinicalData,
// ONE_TO_MANY) under MaxQuality. Paper: 6 datasets, ~240 s, ~$0.35.
func BenchmarkE1ScientificDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE1()
		if err != nil {
			b.Fatal(err)
		}
		if r.OutputDatasets != 6 {
			b.Fatalf("extracted %d datasets, want 6", r.OutputDatasets)
		}
		b.ReportMetric(float64(r.OutputDatasets), "datasets")
		b.ReportMetric(r.Runtime.Seconds(), "sim_s")
		b.ReportMetric(r.CostUSD, "usd")
		b.ReportMetric(r.ExtractionF1, "F1")
	}
}

// BenchmarkE2ChatPipelineConstruction reproduces the Figure 3-4 chat flow:
// the full conversation, including the compound request the agent
// decomposes into chained tool calls.
func BenchmarkE2ChatPipelineConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE2(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if r.OutputDatasets != 6 {
			b.Fatalf("chat pipeline yielded %d datasets, want 6", r.OutputDatasets)
		}
		b.ReportMetric(float64(r.DecomposedSteps), "chained_calls")
		b.ReportMetric(float64(len(r.Actions)), "tool_calls")
	}
}

// BenchmarkE3CodeGeneration reproduces the Figure 6 code export and checks
// every structural element is present.
func BenchmarkE3CodeGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE3(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if r.Missing != 0 {
			b.Fatalf("generated code missing %d Figure 6 elements", r.Missing)
		}
		b.ReportMetric(float64(len(experiments.Figure6Elements)-r.Missing), "fig6_elements")
	}
}

// BenchmarkE4LegalDiscovery runs the legal-discovery demo scenario.
func BenchmarkE4LegalDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE4Legal()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Outputs), "contracts")
		b.ReportMetric(r.CostUSD, "usd")
		b.ReportMetric(r.Runtime.Seconds(), "sim_s")
	}
}

// BenchmarkE4RealEstate runs the real-estate search demo scenario.
func BenchmarkE4RealEstate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE4RealEstate()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Outputs), "groups")
		b.ReportMetric(r.CostUSD, "usd")
		b.ReportMetric(r.Runtime.Seconds(), "sim_s")
	}
}

// BenchmarkE5PolicySweep reproduces §2.1's optimizer behaviour: the policy
// sweep across pure and constrained objectives. Reported metrics are the
// quality-vs-cost spread between the extreme policies.
func BenchmarkE5PolicySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunE5()
		if err != nil {
			b.Fatal(err)
		}
		var quality, cost experiments.E5Row
		for _, r := range rows {
			switch r.Policy {
			case "max-quality":
				quality = r
			case "min-cost":
				cost = r
			}
		}
		if quality.MeasCost <= cost.MeasCost {
			b.Fatal("max-quality run not more expensive than min-cost run")
		}
		if quality.ExtractionF1 <= cost.ExtractionF1 {
			b.Fatal("max-quality run not higher F1 than min-cost run")
		}
		b.ReportMetric(quality.MeasCost/cost.MeasCost, "cost_ratio")
		b.ReportMetric(quality.ExtractionF1-cost.ExtractionF1, "F1_gap")
	}
}

// BenchmarkE6PlanEnumeration measures the physical plan-space growth and
// Pareto pruning ("a search space of all possible physical plans").
func BenchmarkE6PlanEnumeration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunE6()
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.SpaceSize), "plans")
		b.ReportMetric(float64(last.Pruned), "pareto_plans")
	}
}

// BenchmarkE7SentinelCalibration measures sample-based estimate
// sharpening: at full-sample calibration the final cardinality estimate
// must hit the true 6.
func BenchmarkE7SentinelCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunE7()
		if err != nil {
			b.Fatal(err)
		}
		full := rows[len(rows)-1]
		if full.EstFinalCard < 5.9 || full.EstFinalCard > 6.1 {
			b.Fatalf("full-sample estimate %.2f, want ~6", full.EstFinalCard)
		}
		b.ReportMetric(full.EstFinalCard, "est_card")
		b.ReportMetric(full.SamplingCost, "sampling_usd")
	}
}

// BenchmarkE8ToolRouting measures docstring-driven tool selection with and
// without usage examples ("providing a few examples ... proved to be the
// most efficient solution").
func BenchmarkE8ToolRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE8()
		if err != nil {
			b.Fatal(err)
		}
		if r.DocWith <= r.DocWithout {
			b.Fatal("docstring examples did not improve similarity-only routing")
		}
		b.ReportMetric(float64(r.DocWith)/float64(r.Cases), "acc_with_examples")
		b.ReportMetric(float64(r.DocWithout)/float64(r.Cases), "acc_without")
	}
}

// BenchmarkAblationConvertStrategy compares bonded vs field-at-a-time
// conversion (DESIGN.md ablation).
func BenchmarkAblationConvertStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationConvert()
		if err != nil {
			b.Fatal(err)
		}
		bonded, fieldwise := rows[0], rows[1]
		if fieldwise.CostUSD <= bonded.CostUSD {
			b.Fatal("field-at-a-time not more expensive than bonded")
		}
		b.ReportMetric(fieldwise.CostUSD/bonded.CostUSD, "cost_ratio")
	}
}

// BenchmarkAblationPrefilter compares an LLM-only filter chain against an
// embedding pre-filter in front of it (DESIGN.md ablation).
func BenchmarkAblationPrefilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationPrefilter()
		if err != nil {
			b.Fatal(err)
		}
		plain, pre := rows[0], rows[1]
		if pre.CostUSD >= plain.CostUSD {
			b.Fatal("prefilter did not reduce cost")
		}
		b.ReportMetric(plain.CostUSD-pre.CostUSD, "usd_saved")
		b.ReportMetric(plain.F1-pre.F1, "F1_lost")
	}
}

// BenchmarkAblationParetoPruning isolates enumeration with and without
// Pareto pruning on the longest E6 pipeline.
func BenchmarkAblationParetoPruning(b *testing.B) {
	_, ds, _, err := experiments.BiomedContext(pz.Config{})
	if err != nil {
		b.Fatal(err)
	}
	clinical := experiments.ClinicalSchema()
	pipeline := ds.
		Filter("predicate one").Filter("predicate two").Filter("predicate three").
		Convert(clinical, clinical.Doc(), pz.OneToMany)
	chain := pipeline.Chain()
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := optimizer.New(optimizer.Options{}).Optimize(chain, optimizer.MaxQuality{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pareto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := optimizer.New(optimizer.Options{Pruning: true}).Optimize(chain, optimizer.MaxQuality{}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE9Scaling measures cost/runtime growth with library size and
// the parallel speedup (paper §1: "users face major challenges around
// runtime cost").
func BenchmarkE9Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunScale([]int{11, 44})
		if err != nil {
			b.Fatal(err)
		}
		small, big := rows[0], rows[1]
		ratio := big.CostUSD / small.CostUSD
		if ratio < 3.2 || ratio > 4.8 {
			b.Fatalf("4x corpus cost ratio = %.2f, want ~4", ratio)
		}
		if big.RuntimePar8 >= big.RuntimeSeq {
			b.Fatal("parallelism did not speed up the run")
		}
		b.ReportMetric(ratio, "cost_ratio_4x")
		b.ReportMetric(big.RuntimeSeq.Seconds()/big.RuntimePar8.Seconds(), "par_speedup")
	}
}

// BenchmarkExecEngines is the sequential-vs-pipelined run pair: the same
// 3-LLM-operator, 100-record plan at Parallelism=8 as one batch per stage
// and with overlapping streamed stages (the shared internal/workloads
// workload the executor acceptance test also runs). The pipelined run
// also reports its speedup over the one-batch run (simulated clock; the
// acceptance bar is >= 2x).
func BenchmarkExecEngines(b *testing.B) {
	phys, err := workloads.StreamPlan(100)
	if err != nil {
		b.Fatal(err)
	}
	runOn := func(b *testing.B, run func(*exec.Executor) (*exec.Result, error)) *exec.Result {
		b.Helper()
		e, err := exec.NewExecutor(exec.Config{Parallelism: 8})
		if err != nil {
			b.Fatal(err)
		}
		res, err := run(e)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) == 0 {
			b.Fatal("benchmark workload produced no records")
		}
		return res
	}
	seq := runOn(b, func(e *exec.Executor) (*exec.Result, error) { return e.RunSequential(context.Background(), phys) })
	b.Run("sequential", func(b *testing.B) {
		var res *exec.Result
		for i := 0; i < b.N; i++ {
			res = runOn(b, func(e *exec.Executor) (*exec.Result, error) { return e.RunSequential(context.Background(), phys) })
		}
		b.ReportMetric(res.Elapsed.Seconds(), "sim_s")
		b.ReportMetric(float64(len(res.Records)), "records")
	})
	b.Run("pipelined", func(b *testing.B) {
		var res *exec.Result
		for i := 0; i < b.N; i++ {
			res = runOn(b, func(e *exec.Executor) (*exec.Result, error) { return e.RunPipelined(context.Background(), phys) })
		}
		speedup := seq.Elapsed.Seconds() / res.Elapsed.Seconds()
		if speedup < 2 {
			b.Fatalf("pipelined speedup %.2fx < 2x (seq %v, pipe %v)", speedup, seq.Elapsed, res.Elapsed)
		}
		if len(res.Records) != len(seq.Records) {
			b.Fatalf("engines disagree: %d vs %d records", len(res.Records), len(seq.Records))
		}
		b.ReportMetric(res.Elapsed.Seconds(), "sim_s")
		b.ReportMetric(float64(len(res.Records)), "records")
		b.ReportMetric(speedup, "speedup_x")
	})
}

// BenchmarkServeThroughput is the serving-layer pair: 16 synchronous
// queries pushed through pzserve's HTTP API over one shared pz.Context,
// once admission-limited to a single execution slot ("sequential") and
// once with 8 ("concurrent"). Reported metrics are wall-clock queries/sec
// and the cross-query plan-cache hits the repeat traffic earns.
func BenchmarkServeThroughput(b *testing.B) {
	const queries = 16
	specBody := func(pred string) []byte {
		data, err := json.Marshal(&serve.Spec{
			Dataset: serve.DatasetSpec{Name: workloads.StreamSourceName},
			Ops:     []serve.OpSpec{{Op: "filter", Predicate: pred}},
			Policy:  "min-cost",
		})
		if err != nil {
			b.Fatal(err)
		}
		return data
	}
	bodies := make([][]byte, len(workloads.StreamPredicates))
	for i, p := range workloads.StreamPredicates {
		bodies[i] = specBody(p)
	}

	runServe := func(b *testing.B, inflight int) {
		b.Helper()
		ctx, err := pz.NewContext(pz.Config{Parallelism: 4, EnableCache: true, CacheCapacity: 1 << 14})
		if err != nil {
			b.Fatal(err)
		}
		recs, sc, err := workloads.StreamRecords(32)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.RegisterRecords(workloads.StreamSourceName, sc, recs); err != nil {
			b.Fatal(err)
		}
		srv, err := serve.New(serve.Config{Context: ctx, MaxInflight: inflight, MaxQueue: queries})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			errs := make(chan error, queries)
			var wg sync.WaitGroup
			for q := 0; q < queries; q++ {
				wg.Add(1)
				go func(q int) {
					defer wg.Done()
					resp, err := http.Post(ts.URL+"/v1/query?wait=1", "application/json",
						bytes.NewReader(bodies[q%len(bodies)]))
					if err != nil {
						errs <- err
						return
					}
					defer resp.Body.Close()
					if _, err := io.Copy(io.Discard, resp.Body); err != nil {
						errs <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("query %d: status %d", q, resp.StatusCode)
					}
				}(q)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(queries*b.N)/secs, "queries/s")
		}
		b.ReportMetric(float64(srv.PlanCache().Stats().Hits)/float64(b.N), "plan_hits")
	}
	b.Run("sequential", func(b *testing.B) { runServe(b, 1) })
	b.Run("concurrent", func(b *testing.B) { runServe(b, 8) })
}

// BenchmarkCorpusScale runs the pipelined streaming engine over a
// 100k-document file-backed NDJSON corpus — the corpus-at-scale
// acceptance workload. The support-ticket corpus is generated once,
// spilled to disk (as `pzcorpus generate -domain support -n 100000`
// would), and registered without loading: the optimizer costs the plan
// from manifest statistics and the scan streams records from the file
// batch by batch, so memory stays bounded by the batch size at any corpus
// size. Reported metrics are real-time generation and execution
// throughput plus the run's simulated seconds and dollars.
func BenchmarkCorpusScale(b *testing.B) {
	const docs = 100_000
	cfg := corpus.SupportConfig{NumTickets: docs, UrgentRate: 0.3, Seed: 17}
	path := filepath.Join(b.TempDir(), "support.ndjson")
	genStart := time.Now()
	if _, err := corpus.SaveNDJSON(path, corpus.NewSupportGenerator(cfg), cfg.Seed, cfg); err != nil {
		b.Fatal(err)
	}
	genSecs := time.Since(genStart).Seconds()

	b.ResetTimer()
	var res *pz.Result
	for i := 0; i < b.N; i++ {
		ctx, err := pz.NewContext(pz.Config{Parallelism: 8})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.RegisterNDJSON("tickets", path); err != nil {
			b.Fatal(err)
		}
		ds, err := ctx.Dataset("tickets")
		if err != nil {
			b.Fatal(err)
		}
		res, err = ctx.Execute(ds.Filter(workloads.SupportPredicate), pz.MaxQuality())
		if err != nil {
			b.Fatal(err)
		}
		// The corpus has exactly 30% urgent tickets; per-record model
		// noise moves the kept set a little, but a broken scan or filter
		// moves it a lot.
		if kept := len(res.Records); kept < docs/4 || kept > docs*35/100 {
			b.Fatalf("kept %d of %d records, want ~30%%", kept, docs)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(docs*b.N)/secs, "docs/s")
	}
	b.ReportMetric(docs/genSecs, "gen_docs/s")
	b.ReportMetric(float64(len(res.Records)), "records")
	b.ReportMetric(res.Elapsed.Seconds(), "sim_s")
	b.ReportMetric(res.CostUSD, "usd")
}

// BenchmarkShardScale is the partition-parallel executor pair: the same
// filter pipeline over a 100k-document file-backed NDJSON corpus, once
// through the single-reader pipelined scan and once fanned out across
// P=8 partitions (independent byte-range readers feeding per-partition
// source+map pipelines, merged back into exact dataset order by sequence
// tags). Partitions model independent shards — each gets the configured
// per-operator parallelism — so the sharded run must beat the single
// reader by >= 2x on the simulated clock while producing byte-identical
// records.
func BenchmarkShardScale(b *testing.B) {
	const docs = 100_000
	const partitions = 8
	cfg := corpus.SupportConfig{NumTickets: docs, UrgentRate: 0.3, Seed: 29}
	path := filepath.Join(b.TempDir(), "support.ndjson")
	m, err := corpus.SaveNDJSON(path, corpus.NewSupportGenerator(cfg), cfg.Seed, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if m.Index == nil {
		b.Fatal("writer produced no partition index")
	}

	run := func(b *testing.B, parts int) *pz.Result {
		b.Helper()
		ctx, err := pz.NewContext(pz.Config{Parallelism: 8, Partitions: parts})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.RegisterNDJSON("tickets", path); err != nil {
			b.Fatal(err)
		}
		ds, err := ctx.Dataset("tickets")
		if err != nil {
			b.Fatal(err)
		}
		res, err := ctx.Execute(ds.Filter(workloads.SupportPredicate), pz.MaxQuality())
		if err != nil {
			b.Fatal(err)
		}
		if kept := len(res.Records); kept < docs/4 || kept > docs*35/100 {
			b.Fatalf("kept %d of %d records, want ~30%%", kept, docs)
		}
		return res
	}
	single := run(b, 1)
	singleJSON, err := serve.RecordsJSON(single.Records)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("single", func(b *testing.B) {
		var res *pz.Result
		for i := 0; i < b.N; i++ {
			res = run(b, 1)
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(docs*b.N)/secs, "docs/s")
		}
		b.ReportMetric(res.Elapsed.Seconds(), "sim_s")
		b.ReportMetric(float64(len(res.Records)), "records")
	})
	b.Run("sharded", func(b *testing.B) {
		var res *pz.Result
		for i := 0; i < b.N; i++ {
			res = run(b, partitions)
		}
		b.StopTimer()
		shardJSON, err := serve.RecordsJSON(res.Records)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(shardJSON, singleJSON) {
			b.Fatalf("partitioned results are not byte-identical to the single-reader scan (%d vs %d records)",
				len(res.Records), len(single.Records))
		}
		speedup := single.Elapsed.Seconds() / res.Elapsed.Seconds()
		if speedup < 2 {
			b.Fatalf("sharded speedup %.2fx < 2x at P=%d (single %v, sharded %v)",
				speedup, partitions, single.Elapsed, res.Elapsed)
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(docs*b.N)/secs, "docs/s")
		}
		b.ReportMetric(res.Elapsed.Seconds(), "sim_s")
		b.ReportMetric(float64(len(res.Records)), "records")
		b.ReportMetric(speedup, "speedup_x")
	})
}

// BenchmarkClusterScale is the coordinator/worker scatter-gather pair:
// the same max-quality filter over a 100k-document indexed NDJSON corpus,
// scattered across 8 partitions once over a single in-process worker and
// once over four. Workers execute their assigned partitions serially and
// in parallel with each other, so on the simulated cluster clock the
// 4-worker scatter must approach linear scaling (>= 3x) over the single
// worker while staying byte-identical to the sequential single-process
// scan.
func BenchmarkClusterScale(b *testing.B) {
	const docs = 100_000
	const partitions = 8
	cfg := corpus.SupportConfig{NumTickets: docs, UrgentRate: 0.3, Seed: 29}
	path := filepath.Join(b.TempDir(), "support.ndjson")
	m, err := corpus.SaveNDJSON(path, corpus.NewSupportGenerator(cfg), cfg.Seed, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if m.Index == nil {
		b.Fatal("writer produced no partition index")
	}

	newContext := func() *pz.Context {
		ctx, err := pz.NewContext(pz.Config{Parallelism: 8})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.RegisterNDJSON("tickets", path); err != nil {
			b.Fatal(err)
		}
		return ctx
	}
	spec := &serve.Spec{
		Dataset:    serve.DatasetSpec{Name: "tickets"},
		Ops:        []serve.OpSpec{{Op: "filter", Predicate: workloads.SupportPredicate}},
		Policy:     "max-quality",
		Partitions: partitions,
	}

	// Sequential single-process ground truth.
	seqCtx := newContext()
	ds, err := seqCtx.Dataset("tickets")
	if err != nil {
		b.Fatal(err)
	}
	seq, err := seqCtx.Execute(ds.Filter(workloads.SupportPredicate), pz.MaxQuality())
	if err != nil {
		b.Fatal(err)
	}
	seqJSON, err := serve.RecordsJSON(seq.Records)
	if err != nil {
		b.Fatal(err)
	}

	scatter := func(b *testing.B, workers int) *serve.DistResult {
		b.Helper()
		reg := cluster.NewRegistry(cluster.RegistryConfig{})
		for w := 0; w < workers; w++ {
			wk, err := cluster.NewWorker(cluster.WorkerConfig{
				Name: fmt.Sprintf("w%d", w), Parallelism: 8, ChunkSize: 4096,
				Datasets: map[string]string{"tickets": path},
			})
			if err != nil {
				b.Fatal(err)
			}
			srv := httptest.NewServer(wk.Handler())
			b.Cleanup(srv.Close)
			if err := reg.Register(fmt.Sprintf("w%d", w), srv.URL); err != nil {
				b.Fatal(err)
			}
		}
		// Generous timeouts: the scaling measurement is on the simulated
		// clock, and wall-clock jitter must not trigger re-issues.
		coord, err := cluster.NewCoordinator(cluster.Config{
			Registry: reg, Parallelism: 8,
			PartitionTimeout: 5 * time.Minute, StragglerAfter: 5 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		dres, ok, err := coord.TryExecute(context.Background(), newContext(), spec, partitions)
		if err != nil || !ok {
			b.Fatalf("TryExecute(workers=%d): ok=%v err=%v", workers, ok, err)
		}
		got, err := serve.RecordsJSON(dres.Records)
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Equal(got, seqJSON) {
			b.Fatalf("scattered results (workers=%d) are not byte-identical to the sequential scan (%d vs %d records)",
				workers, len(dres.Records), len(seq.Records))
		}
		return dres
	}

	single := scatter(b, 1)
	b.Run("workers=1", func(b *testing.B) {
		var res *serve.DistResult
		for i := 0; i < b.N; i++ {
			res = scatter(b, 1)
		}
		b.StopTimer()
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(docs*b.N)/secs, "docs/s")
		}
		b.ReportMetric(res.Elapsed.Seconds(), "sim_s")
		b.ReportMetric(float64(len(res.Records)), "records")
	})
	b.Run("workers=4", func(b *testing.B) {
		var res *serve.DistResult
		for i := 0; i < b.N; i++ {
			res = scatter(b, 4)
		}
		b.StopTimer()
		speedup := single.Elapsed.Seconds() / res.Elapsed.Seconds()
		if speedup < 3 {
			b.Fatalf("cluster speedup %.2fx < 3x at 4 workers (1 worker %v, 4 workers %v)",
				speedup, single.Elapsed, res.Elapsed)
		}
		if res.Workers != 4 || res.Partitions != partitions {
			b.Fatalf("scatter ran on %d workers / %d partitions, want 4/%d",
				res.Workers, res.Partitions, partitions)
		}
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(docs*b.N)/secs, "docs/s")
		}
		b.ReportMetric(res.Elapsed.Seconds(), "sim_s")
		b.ReportMetric(float64(len(res.Records)), "records")
		b.ReportMetric(speedup, "speedup_x")
	})
}

// BenchmarkMicroLLMFilterCall isolates one simulated filter call.
func BenchmarkMicroLLMFilterCall(b *testing.B) {
	_, _, inputs, err := experiments.BiomedContext(pz.Config{})
	if err != nil {
		b.Fatal(err)
	}
	svc := llm.NewService()
	req := llm.Request{
		Model: "atlas-large", Task: llm.TaskFilter,
		Record:    inputs[0],
		Predicate: experiments.DemoPredicate,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Complete(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroEmbed isolates one embedding call.
func BenchmarkMicroEmbed(b *testing.B) {
	_, _, inputs, err := experiments.BiomedContext(pz.Config{})
	if err != nil {
		b.Fatal(err)
	}
	text := inputs[0].Text()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = llm.EmbedVector(text)
	}
}
