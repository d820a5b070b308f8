package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/pz"
)

// serveMix is the serve_mix workload: serve.New over a pz.Context with a
// bounded LLM cache, behind a loopback httptest.Server, queried by two
// closed-loop keep-alive clients over four tenants with a seeded mix —
// 75% repeat specs from a warmed pool, 20% specs with a fresh predicate,
// 5% reads of a job trace or /metrics.
type serveMix struct {
	cfg  config
	docs int
	ops  int

	domains []*domain
	pool    []*poolSpec
	script  []serveOp
	ctx     *pz.Context
	srv     *serve.Server
	ts      *httptest.Server
	client  *http.Client

	// resp holds each op's response for check; do and check of one op
	// run on the same client goroutine.
	resp []serveResp

	mu      sync.Mutex
	lastJob string

	// base is the engine and server state at the end of set-up, so the
	// traced run can count what the ops did.
	base serveStats
}

// serveStats is a snapshot of the engine's and the server's counters.
type serveStats struct {
	cache                llm.CacheStats
	calls                int
	planHits, planMisses int64
	rejected             int64
}

func (w *serveMix) stats() serveStats {
	calls := 0
	for _, u := range w.ctx.Executor().Service().Usage() {
		calls += u.Calls
	}
	c := w.srv.Counters()
	return serveStats{
		cache: w.ctx.Executor().Cache().Stats(), calls: calls,
		planHits: c.Get("plan_cache_hits"), planMisses: c.Get("plan_cache_misses"),
		rejected: c.Get("rejected_overload") + c.Get("rejected_budget"),
	}
}

// poolSpec is one repeat spec with its reference output, computed by a
// direct pz.Execute in set-up.
type poolSpec struct {
	dom  *domain
	body []byte
	want []byte
	f1   float64
}

// serveOp is one scripted request.
type serveOp struct {
	class  string // "repeat", "fresh", "read_trace" or "read_metrics"
	body   []byte
	tenant string
	pool   *poolSpec
	dom    *domain
}

type serveResp struct {
	code int
	body []byte
}

// The mix, per block of 40 ops: each of the 30 pool specs once, 8 fresh
// predicates and 2 reads (one job trace, one /metrics) — 75%, 20%, 5%.
const (
	mixFresh   = 8
	mixReads   = 2
	mixTenants = 4
	// serveCacheCapacity bounds the LLM cache a little above what the
	// pool needs, so that fresh predicates fill it within the first
	// blocks and then evict.
	serveCacheCapacity = 2048
)

func newServeMix(cfg config) *serveMix {
	return &serveMix{cfg: cfg, docs: cfg.scaled(64, 8), ops: cfg.opsFor(600, 80)}
}

var servePolicies = []string{"max-quality", "min-cost", "min-time"}

func (w *serveMix) setup(dir string) error {
	w.domains = newDomains(w.cfg.seed, w.docs)
	ctx, err := pz.NewContext(pz.Config{Parallelism: runtime.NumCPU(), EnableCache: true, CacheCapacity: serveCacheCapacity})
	if err != nil {
		return err
	}
	ref, err := pz.NewContext(pz.Config{Parallelism: runtime.NumCPU()})
	if err != nil {
		return err
	}
	w.pool = nil
	for _, d := range w.domains {
		for _, c := range []*pz.Context{ctx, ref} {
			if _, err := c.RegisterDocs(d.name, d.schema, d.docs); err != nil {
				return err
			}
		}
		filter := serve.OpSpec{Op: "filter", Predicate: d.predicate}
		for _, ops := range [][]serve.OpSpec{{filter}, {filter, d.convert}} {
			for _, policy := range servePolicies {
				spec := serve.Spec{Dataset: serve.DatasetSpec{Name: d.name}, Ops: ops, Policy: policy}
				p, err := referenceSpec(ref, d, &spec)
				if err != nil {
					return err
				}
				w.pool = append(w.pool, p)
			}
		}
	}
	w.script = w.buildScript(rand.New(rand.NewSource(w.cfg.seed)))

	srv, err := serve.New(serve.Config{Context: ctx})
	if err != nil {
		return err
	}
	w.ctx, w.srv = ctx, srv
	w.ts = httptest.NewServer(srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	w.resp = make([]serveResp, w.ops)
	// Warm the plan cache and the LLM cache with every pool spec.
	for _, p := range w.pool {
		op := serveOp{class: "repeat", body: p.body, tenant: "warmup", pool: p}
		st, r := w.send(op)
		w.verify(&st, op, r)
		if st.err != nil {
			return fmt.Errorf("warm-up: %w", st.err)
		}
	}
	w.base = w.stats()
	return nil
}

// referenceSpec runs spec directly on the reference context and keeps
// its exact output bytes and F1 against the domain's ground truth.
func referenceSpec(ref *pz.Context, d *domain, spec *serve.Spec) (*poolSpec, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	ds, err := spec.Build(ref)
	if err != nil {
		return nil, err
	}
	policy, err := spec.ParsePolicy()
	if err != nil {
		return nil, err
	}
	res, err := ref.Execute(ds, policy)
	if err != nil {
		return nil, err
	}
	want, err := serve.RecordsJSON(res.Records)
	if err != nil {
		return nil, err
	}
	inputs, err := corpus.Records(d.docs, d.schema, d.name)
	if err != nil {
		return nil, err
	}
	f1 := metrics.FilterQualityByTruth(inputs, res.Records, d.predicate).F1
	return &poolSpec{dom: d, body: body, want: want, f1: f1}, nil
}

// buildScript lays out the op sequence block by block, so every run has
// exactly the same mix of specs and only the order, the tenants and the
// fresh predicates vary by seed.
func (w *serveMix) buildScript(rng *rand.Rand) []serveOp {
	script := make([]serveOp, 0, w.ops)
	fresh := 0
	for len(script) < w.ops {
		block := make([]serveOp, 0, len(w.pool)+mixFresh+mixReads)
		for _, p := range w.pool {
			block = append(block, serveOp{class: "repeat", body: p.body, pool: p})
		}
		for k := 0; k < mixFresh; k++ {
			d := w.domains[fresh%len(w.domains)]
			fresh++
			// Extra words keep the gold answer (every label term is still
			// present) but make the predicate, and so the plan-cache and
			// LLM-cache keys, new.
			spec := serve.Spec{Dataset: serve.DatasetSpec{Name: d.name}, Ops: []serve.OpSpec{{
				Op: "filter", Predicate: fmt.Sprintf("%s (request %d-%d)", d.predicate, w.cfg.seed, fresh)}}}
			body, _ := json.Marshal(&spec)
			block = append(block, serveOp{class: "fresh", body: body, dom: d})
		}
		block = append(block, serveOp{class: "read_trace"}, serveOp{class: "read_metrics"})
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for k := range block {
			block[k].tenant = fmt.Sprintf("tenant-%d", rng.Intn(mixTenants))
		}
		script = append(script, block...)
	}
	return script[:w.ops]
}

func (w *serveMix) clients() int { return 2 }
func (w *serveMix) numOps() int  { return w.ops }

func (w *serveMix) do(i int) opStat {
	st, r := w.send(w.script[i])
	w.resp[i] = r
	return st
}

// send issues one scripted request and reads the whole response.
func (w *serveMix) send(op serveOp) (opStat, serveResp) {
	st := opStat{class: op.class}
	var req *http.Request
	var err error
	switch op.class {
	case "read_trace":
		w.mu.Lock()
		job := w.lastJob
		w.mu.Unlock()
		req, err = http.NewRequest(http.MethodGet, w.ts.URL+"/v1/jobs/"+job+"/trace", nil)
	case "read_metrics":
		req, err = http.NewRequest(http.MethodGet, w.ts.URL+"/metrics", nil)
	default:
		req, err = http.NewRequest(http.MethodPost, w.ts.URL+"/v1/query?wait=1", bytes.NewReader(op.body))
		st.docs = len(op.domain().docs)
	}
	if err != nil {
		st.err = err
		return st, serveResp{}
	}
	req.Header.Set("X-PZ-Tenant", op.tenant)
	resp, err := w.client.Do(req)
	if err != nil {
		st.err = err
		return st, serveResp{}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	st.err = err
	return st, serveResp{code: resp.StatusCode, body: body}
}

func (op serveOp) domain() *domain {
	if op.pool != nil {
		return op.pool.dom
	}
	return op.dom
}

func (w *serveMix) check(i int, st *opStat) {
	r := w.resp[i]
	w.resp[i] = serveResp{}
	w.verify(st, w.script[i], r)
}

// verify checks one response: reads must succeed, pool specs must return
// exactly their reference records, fresh predicates must score against
// ground truth. It scans the compact response instead of decoding it,
// so checking costs the measured process next to nothing.
func (w *serveMix) verify(st *opStat, op serveOp, r serveResp) {
	if st.err != nil {
		return
	}
	if r.code != http.StatusOK {
		st.err = fmt.Errorf("%s: status %d: %.200s", op.class, r.code, r.body)
		return
	}
	switch op.class {
	case "read_trace":
		if !bytes.Contains(r.body, []byte(`"kind":"query"`)) {
			st.err = fmt.Errorf("job trace without a query span: %.200s", r.body)
			return
		}
		st.ok = true
		return
	case "read_metrics":
		if !bytes.Contains(r.body, []byte("pz_queries_total")) {
			st.err = fmt.Errorf("/metrics without pz_queries_total")
			return
		}
		st.ok = true
		return
	}
	if string(jsonValue(r.body, "status")) != serve.StatusDone {
		st.err = fmt.Errorf("%s query not done: %.200s", op.class, r.body)
		return
	}
	const head = `{"id":"`
	start := bytes.Index(r.body, []byte(`"records":`))
	end := bytes.LastIndex(r.body, []byte(`,"count":`))
	idEnd := bytes.IndexByte(r.body[min(len(head), len(r.body)):], '"')
	if !bytes.HasPrefix(r.body, []byte(head)) || start < 0 || end < start || idEnd < 0 {
		st.err = fmt.Errorf("malformed query response: %.200s", r.body)
		return
	}
	records := r.body[start+len(`"records":`) : end]
	switch op.class {
	case "repeat":
		if !bytes.Equal(records, op.pool.want) {
			st.err = fmt.Errorf("pool spec output differs from its direct pz.Execute reference (%d vs %d bytes)",
				len(records), len(op.pool.want))
			return
		}
		st.f1 = op.pool.f1
	case "fresh":
		st.f1 = op.dom.filenameF1(records)
		if st.f1 < 0.6 {
			st.err = fmt.Errorf("fresh predicate F1 %.3f below 0.6", st.f1)
			return
		}
	}
	st.hasF1 = true
	st.usd = jsonFloat(r.body, "cost_usd")
	st.sim = time.Duration(jsonFloat(r.body, "elapsed_sim_ms") * float64(time.Millisecond))
	w.mu.Lock()
	w.lastJob = string(r.body[len(head) : len(head)+idEnd])
	w.mu.Unlock()
	st.ok = true
}

func (w *serveMix) layers(dir string) (*layerInputs, error) {
	now, base := w.stats(), w.base
	t := tally{
		calls:       now.calls - base.calls,
		hits:        now.cache.Hits - base.cache.Hits,
		lookups:     now.cache.Hits + now.cache.Misses - base.cache.Hits - base.cache.Misses,
		evictions:   now.cache.Evictions - base.cache.Evictions,
		planHits:    int(now.planHits - base.planHits),
		planLookups: int(now.planHits + now.planMisses - base.planHits - base.planMisses),
		optimizes:   int(now.planMisses - base.planMisses),
		rejected:    int(now.rejected - base.rejected),
	}
	for _, op := range w.script {
		if op.class == "repeat" || op.class == "fresh" {
			t.queries++
		}
	}
	c := w.srv.Counters()
	// The server keeps every job it ran, warm-up included.
	t.jobs = int(c.Get("queries_done") + c.Get("queries_failed") + c.Get("queries_canceled"))
	var support *domain
	for _, d := range w.domains {
		if d.name == "support" {
			support = d
		}
	}
	ndjson, folder, gen, err := docsInputs(dir, corpus.DomainSupport, support.docs)
	if err != nil {
		return nil, err
	}
	chat, err := demoChat(dir)
	if err != nil {
		return nil, err
	}
	spec := serve.Spec{Dataset: serve.DatasetSpec{Name: "data"}, Policy: "max-quality",
		Ops: []serve.OpSpec{{Op: "filter", Predicate: support.predicate}, support.convert}}
	return &layerInputs{corpus: ndjson, gen: gen, dir: folder, spec: spec, cache: true, chat: chat, tally: t}, nil
}

func (w *serveMix) sizes() map[string]int {
	return map[string]int{"docs_per_domain": w.docs, "domains": len(w.domains), "pool_specs": len(w.pool),
		"ops": w.ops, "clients": 2, "tenants": mixTenants, "llm_cache_capacity": serveCacheCapacity}
}

func (w *serveMix) close() {
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}
