package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/serve"
	"repro/internal/workloads"
	"repro/pz"
)

// clusterScatter is the cluster_scatter workload: a 20k-doc indexed
// NDJSON support corpus (sized, like corpus_scan's, for a few dozen ops
// per run), two in-process cluster.Workers behind loopback
// servers, a Registry and a Coordinator. One closed-loop client calls
// Coordinator.TryExecute on an 8-partition filter spec; the output must
// be byte-identical to a local run made in set-up.
type clusterScatter struct {
	cfg  config
	docs int
	ops  int

	path     string
	manifest *corpus.Manifest
	gold     *supportGold
	ctx      *pz.Context
	spec     *serve.Spec
	reg      *cluster.Registry
	coord    *cluster.Coordinator
	servers  []*httptest.Server
	tally    tally

	want  [sha256.Size]byte
	wantN int
	last  *serve.DistResult
}

const (
	scatterWorkers    = 2
	scatterPartitions = 8
)

func newClusterScatter(cfg config) *clusterScatter {
	return &clusterScatter{cfg: cfg, docs: cfg.scaled(20_000, 400), ops: cfg.opsFor(2.2, 3)}
}

func (w *clusterScatter) setup(dir string) error {
	w.path = filepath.Join(dir, "tickets.ndjson")
	m, gold, err := writeSupportCorpus(w.path, w.docs, w.cfg.seed)
	if err != nil {
		return err
	}
	if m.Index == nil {
		return fmt.Errorf("corpus has no partition index")
	}
	w.manifest, w.gold = m, gold
	if w.ctx, err = pz.NewContext(pz.Config{Parallelism: runtime.NumCPU()}); err != nil {
		return err
	}
	if _, err := w.ctx.RegisterNDJSON("tickets", w.path); err != nil {
		return err
	}
	w.spec = &serve.Spec{
		Dataset:    serve.DatasetSpec{Name: "tickets"},
		Ops:        []serve.OpSpec{{Op: "filter", Predicate: workloads.SupportPredicate}},
		Policy:     "max-quality",
		Partitions: scatterPartitions,
	}
	// The local reference run.
	ds, err := w.ctx.Dataset("tickets")
	if err != nil {
		return err
	}
	local, err := w.ctx.Execute(ds.Filter(workloads.SupportPredicate), pz.MaxQuality())
	if err != nil {
		return err
	}
	w.want, w.wantN = digestRecords(local.Records), len(local.Records)

	w.reg = cluster.NewRegistry(cluster.RegistryConfig{})
	for i := 0; i < scatterWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		wk, err := cluster.NewWorker(cluster.WorkerConfig{Name: name, Parallelism: runtime.NumCPU(),
			ChunkSize: 4096, Datasets: map[string]string{"tickets": w.path}})
		if err != nil {
			return err
		}
		ts := httptest.NewServer(wk.Handler())
		w.servers = append(w.servers, ts)
		if err := w.reg.Register(name, ts.URL); err != nil {
			return err
		}
	}
	// Timeouts far above an op's length: wall-clock jitter must not
	// trigger re-issues.
	w.coord, err = cluster.NewCoordinator(cluster.Config{Registry: w.reg, Parallelism: runtime.NumCPU(),
		PartitionTimeout: 5 * time.Minute, StragglerAfter: 5 * time.Minute})
	return err
}

func (w *clusterScatter) clients() int { return 1 }
func (w *clusterScatter) numOps() int  { return w.ops }

func (w *clusterScatter) do(i int) opStat {
	st := opStat{class: "scatter"}
	res, ok, err := w.coord.TryExecute(context.Background(), w.ctx, w.spec, scatterPartitions)
	switch {
	case err != nil:
		st.err = err
	case !ok:
		st.err = fmt.Errorf("coordinator declined the scatter")
	default:
		w.last = res
		st.docs, st.usd, st.sim = w.docs, res.CostUSD, res.Elapsed
	}
	return st
}

func (w *clusterScatter) check(i int, st *opStat) {
	res := w.last
	w.last = nil
	if st.err != nil {
		return
	}
	if res.Partitions != scatterPartitions || res.Workers != scatterWorkers {
		st.err = fmt.Errorf("scatter ran %d partitions on %d workers, want %d on %d",
			res.Partitions, res.Workers, scatterPartitions, scatterWorkers)
		return
	}
	if digestRecords(res.Records) != w.want || len(res.Records) != w.wantN {
		st.err = fmt.Errorf("scattered output (%d records) differs from the local run (%d)", len(res.Records), w.wantN)
		return
	}
	st.f1, st.hasF1 = w.gold.f1(res.Records), true
	if st.f1 < 0.8 {
		st.err = fmt.Errorf("scatter F1 %.3f below 0.8", st.f1)
		return
	}
	w.tally.decoded += w.docs
	w.tally.calls += traceCalls(res.Trace)
	w.tally.wire += len(res.Records)
	// The coordinator optimizes the prefix once, each partition again.
	w.tally.optimizes += 1 + scatterPartitions
	w.tally.partitions += scatterPartitions
	st.ok = true
}

func (w *clusterScatter) layers(dir string) (*layerInputs, error) {
	sample, err := supportSample(dir, w.cfg.seed)
	if err != nil {
		return nil, err
	}
	chat, err := demoChat(dir)
	if err != nil {
		return nil, err
	}
	t := w.tally
	c := w.reg.Counters()
	t.attempts = int(c.Get("cluster_partitions_scattered") + c.Get("cluster_partitions_rescattered") +
		c.Get("cluster_straggler_reissues") + c.Get("cluster_partitions_local"))
	spec := supportSpec(false)
	spec.Partitions = scatterPartitions
	return &layerInputs{corpus: w.path, gen: supportGen(min(w.docs, layerDocs), w.cfg.seed), dir: sample,
		spec: spec, chat: chat, tally: t}, nil
}

func (w *clusterScatter) sizes() map[string]int {
	return map[string]int{"docs": w.docs, "ops": w.ops, "workers": scatterWorkers,
		"partitions": scatterPartitions, "corpus_bytes": int(w.manifest.Bytes)}
}

func (w *clusterScatter) close() {
	for _, ts := range w.servers {
		ts.Close()
	}
	w.servers = nil
}
