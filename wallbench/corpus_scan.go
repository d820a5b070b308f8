package main

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"

	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/workloads"
	"repro/pz"
)

// corpusScan is the corpus_scan workload: the support-triage chain
// (scan → filter(urgent) → convert(route), max quality) over a 25k-doc
// NDJSON corpus, run by one closed-loop client through pz.Context.Execute
// with Parallelism = nproc, a single reader and no LLM cache. The corpus
// is sized so a run holds a few dozen ops: the pipelined engine's op time
// is bimodal on a small host, and only a median over that many is steady.
type corpusScan struct {
	cfg  config
	docs int
	ops  int

	path     string
	manifest *corpus.Manifest
	ctx      *pz.Context
	pipeline *pz.Dataset
	gold     *supportGold
	tally    tally

	// last is the result of the op check is about to verify (one client).
	last *pz.Result
	// ref is the first op's output digest; every later op must match it.
	ref     [sha256.Size]byte
	refN    int
	refSeen bool
}

func newCorpusScan(cfg config) *corpusScan {
	return &corpusScan{cfg: cfg, docs: cfg.scaled(25_000, 200), ops: cfg.opsFor(1.6, 3)}
}

// supportGold records, while a support corpus is generated, which tickets
// the triage predicate's gold answer keeps.
type supportGold struct {
	corpus.Generator
	keep map[string]bool
}

func (g *supportGold) Next() (*corpus.Doc, error) {
	d, err := g.Generator.Next()
	if err == nil && llm.GoldFilterDecision(d.Truth, workloads.SupportPredicate) {
		g.keep[d.Truth.Fields["ticket_id"]] = true
	}
	return d, err
}

// writeSupportCorpus generates an n-ticket support corpus from seed into
// path and returns its manifest and gold answers.
func writeSupportCorpus(path string, n int, seed int64) (*corpus.Manifest, *supportGold, error) {
	cfg := corpus.SupportConfig{NumTickets: n, UrgentRate: 0.3, Seed: seed}
	g := &supportGold{Generator: corpus.NewSupportGenerator(cfg), keep: map[string]bool{}}
	m, err := corpus.SaveNDJSON(path, g, seed, cfg)
	if err != nil {
		return nil, nil, err
	}
	return m, g, nil
}

// f1 scores support-triage output records against the gold answers.
func (g *supportGold) f1(recs []*pz.Record) float64 {
	tp, fp := 0, 0
	for _, r := range recs {
		t := corpus.TruthOf(r)
		if t != nil && g.keep[t.Fields["ticket_id"]] {
			tp++
		} else {
			fp++
		}
	}
	return f1Score(tp, fp, len(g.keep)-tp)
}

func f1Score(tp, fp, fn int) float64 {
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(tp+fp)
	r := float64(tp) / float64(tp+fn)
	return 2 * p * r / (p + r)
}

// digestRecords hashes records' schema fields in order, so equal outputs
// give equal digests without materializing their JSON.
func digestRecords(recs []*pz.Record) [sha256.Size]byte {
	h := sha256.New()
	for _, r := range recs {
		for _, f := range r.Schema().Fields() {
			h.Write([]byte(f.Name))
			h.Write([]byte{0})
			h.Write([]byte(r.GetString(f.Name)))
			h.Write([]byte{0})
		}
		h.Write([]byte{'\n'})
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

func (w *corpusScan) setup(dir string) error {
	w.path = filepath.Join(dir, "tickets.ndjson")
	m, gold, err := writeSupportCorpus(w.path, w.docs, w.cfg.seed)
	if err != nil {
		return err
	}
	w.manifest, w.gold = m, gold
	ctx, err := pz.NewContext(pz.Config{Parallelism: runtime.NumCPU()})
	if err != nil {
		return err
	}
	if _, err := ctx.RegisterNDJSON("tickets", w.path); err != nil {
		return err
	}
	ds, err := ctx.Dataset("tickets")
	if err != nil {
		return err
	}
	route, err := workloads.SupportRouteSchema()
	if err != nil {
		return err
	}
	w.ctx = ctx
	w.pipeline = ds.Filter(workloads.SupportPredicate).Convert(route, route.Doc(), pz.OneToOne)
	return nil
}

func (w *corpusScan) clients() int { return 1 }
func (w *corpusScan) numOps() int  { return w.ops }

func (w *corpusScan) do(i int) opStat {
	res, err := w.ctx.Execute(w.pipeline, pz.MaxQuality())
	w.last = res
	if err != nil {
		return opStat{class: "scan", err: err}
	}
	return opStat{class: "scan", docs: w.docs, usd: res.CostUSD, sim: res.Elapsed}
}

func (w *corpusScan) check(i int, st *opStat) {
	res := w.last
	w.last = nil
	if st.err != nil {
		return
	}
	if got := scannedDocs(res.Trace); got != w.docs {
		st.err = fmt.Errorf("scan read %d docs, corpus has %d", got, w.docs)
		return
	}
	st.f1, st.hasF1 = w.gold.f1(res.Records), true
	if st.f1 < 0.8 {
		st.err = fmt.Errorf("triage F1 %.3f below 0.8", st.f1)
		return
	}
	w.tally.decoded += w.docs
	w.tally.calls += traceCalls(res.Trace)
	w.tally.optimizes++
	d := digestRecords(res.Records)
	if !w.refSeen {
		w.ref, w.refN, w.refSeen = d, len(res.Records), true
	}
	if d != w.ref || len(res.Records) != w.refN {
		st.err = fmt.Errorf("op %d output (%d records) differs from op 0 (%d records)", i, len(res.Records), w.refN)
		return
	}
	st.ok = true
}

func (w *corpusScan) sizes() map[string]int {
	return map[string]int{"docs": w.docs, "ops": w.ops, "corpus_bytes": int(w.manifest.Bytes)}
}

func (w *corpusScan) layers(dir string) (*layerInputs, error) {
	sample, err := supportSample(dir, w.cfg.seed)
	if err != nil {
		return nil, err
	}
	chat, err := demoChat(dir)
	if err != nil {
		return nil, err
	}
	return &layerInputs{corpus: w.path, gen: supportGen(min(w.docs, layerDocs), w.cfg.seed), dir: sample,
		spec: supportSpec(true), chat: chat, tally: w.tally}, nil
}

func (w *corpusScan) close() {}
