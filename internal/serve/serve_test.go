package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/workloads"
	"repro/pz"
)

// newStreamContext builds a pz.Context with the shared streaming workload
// registered — the same records a direct-execution reference context sees.
func newStreamContext(t *testing.T, n int, cfg pz.Config) *pz.Context {
	t.Helper()
	ctx, err := pz.NewContext(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs, sc, err := workloads.StreamRecords(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.RegisterRecords(workloads.StreamSourceName, sc, recs); err != nil {
		t.Fatal(err)
	}
	return ctx
}

// streamSpec is a filter pipeline over the registered streaming workload.
func streamSpec(policy string, predicates ...string) *Spec {
	s := &Spec{Dataset: DatasetSpec{Name: workloads.StreamSourceName}, Policy: policy}
	for _, p := range predicates {
		s.Ops = append(s.Ops, OpSpec{Op: "filter", Predicate: p})
	}
	return s
}

func postQuery(t *testing.T, url string, spec *Spec, wait bool, tenant string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	u := url + "/v1/query"
	if wait {
		u += "?wait=1"
	}
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-PZ-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// awaitStatus polls a job until it reaches a terminal status.
func awaitStatus(t *testing.T, url, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var view JobView
		getJSON(t, url+"/v1/jobs/"+id, &view)
		switch view.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle", id)
	return JobView{}
}

// TestServeConcurrentQueriesAcceptance is the serving subsystem's
// acceptance test: >= 8 concurrent queries through the HTTP API produce
// byte-identical results to direct Context.Execute, and repeat queries
// report plan-cache hits through /metrics.
func TestServeConcurrentQueriesAcceptance(t *testing.T) {
	const n = 24
	cfg := pz.Config{Parallelism: 4, EnableCache: true, CacheCapacity: 1 << 14}
	srv, err := New(Config{Context: newStreamContext(t, n, cfg), MaxInflight: 8, MaxQueue: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two distinct queries, each executed directly for reference bytes.
	specs := []*Spec{
		streamSpec("max-quality", workloads.StreamPredicates[0], workloads.StreamPredicates[1]),
		streamSpec("min-cost", workloads.StreamPredicates[2]),
	}
	wantBytes := make([][]byte, len(specs))
	for i, spec := range specs {
		ref := newStreamContext(t, n, cfg)
		ds, err := spec.Build(ref)
		if err != nil {
			t.Fatal(err)
		}
		policy, err := spec.ParsePolicy()
		if err != nil {
			t.Fatal(err)
		}
		res, err := ref.Execute(ds, policy)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) == 0 {
			t.Fatal("reference run produced no records")
		}
		raw, err := RecordsJSON(res.Records)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes[i] = raw
	}

	// Two waves of 8 concurrent queries each: the second wave repeats the
	// first's fingerprints, so its plans must come from the cache.
	runWave := func() {
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				which := i % len(specs)
				resp, data := postQuery(t, ts.URL, specs[which], true, "")
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query %d: status %d: %s", i, resp.StatusCode, data)
					return
				}
				var view JobView
				if err := json.Unmarshal(data, &view); err != nil {
					errs <- err
					return
				}
				if view.Status != StatusDone || view.Result == nil {
					errs <- fmt.Errorf("query %d: %+v", i, view)
					return
				}
				if !bytes.Equal(view.Result.Records, wantBytes[which]) {
					errs <- fmt.Errorf("query %d: records differ from direct Execute:\nserve:  %s\ndirect: %s",
						i, view.Result.Records, wantBytes[which])
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
	runWave()
	if t.Failed() {
		t.FailNow()
	}
	runWave()

	var m Metrics
	getJSON(t, ts.URL+"/metrics?format=json", &m)
	if m.PlanCache.Hits == 0 {
		t.Errorf("plan cache hits = 0 after repeated queries: %+v", m.PlanCache)
	}
	if m.PlanCache.Misses == 0 || m.PlanCache.Size != len(specs) {
		t.Errorf("plan cache stats: %+v", m.PlanCache)
	}
	if m.Counters["queries_done"] != 16 {
		t.Errorf("queries_done = %d, want 16", m.Counters["queries_done"])
	}
	if m.LLMCache == nil || m.LLMCache.Hits == 0 {
		t.Errorf("shared LLM cache saw no hits across queries: %+v", m.LLMCache)
	}
	if m.Tenants["default"].Requests != 16 {
		t.Errorf("tenant accounting: %+v", m.Tenants)
	}
}

// TestServeAdmissionControl: with one execution slot and a one-deep
// queue, a third concurrent query is shed with 429; releasing the slot
// drains the queue.
func TestServeAdmissionControl(t *testing.T) {
	started := make(chan string, 8)
	gate := make(chan struct{})
	srv, err := New(Config{
		Context:     newStreamContext(t, 4, pz.Config{Parallelism: 2}),
		MaxInflight: 1, MaxQueue: 1,
		OnJobStart: func(ctx context.Context, job *Job) {
			started <- job.ID()
			select {
			case <-gate:
			case <-ctx.Done():
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	spec := streamSpec("min-cost", workloads.StreamPredicates[0])

	resp1, data1 := postQuery(t, ts.URL, spec, false, "")
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d: %s", resp1.StatusCode, data1)
	}
	var j1 JobView
	if err := json.Unmarshal(data1, &j1); err != nil {
		t.Fatal(err)
	}
	<-started // job 1 holds the only slot

	resp2, data2 := postQuery(t, ts.URL, spec, false, "")
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d: %s", resp2.StatusCode, data2)
	}
	var j2 JobView
	if err := json.Unmarshal(data2, &j2); err != nil {
		t.Fatal(err)
	}

	resp3, data3 := postQuery(t, ts.URL, spec, false, "")
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429: %s", resp3.StatusCode, data3)
	}

	var m Metrics
	getJSON(t, ts.URL+"/metrics?format=json", &m)
	if m.Counters["rejected_overload"] != 1 {
		t.Errorf("rejected_overload = %d", m.Counters["rejected_overload"])
	}
	if m.Admission.Running != 1 || m.Admission.Queued != 1 {
		t.Errorf("admission occupancy: %+v", m.Admission)
	}

	close(gate)
	if v := awaitStatus(t, ts.URL, j1.ID); v.Status != StatusDone {
		t.Errorf("job 1: %+v", v)
	}
	if v := awaitStatus(t, ts.URL, j2.ID); v.Status != StatusDone {
		t.Errorf("job 2: %+v", v)
	}
}

// TestServeClientCancellation: canceling a query — by the cancel endpoint
// for a background job, or by dropping the connection of a synchronous one
// — aborts it cleanly, frees its slot, and leaves the server serving.
func TestServeClientCancellation(t *testing.T) {
	started := make(chan string, 8)
	var gateOnce sync.Once
	gate := make(chan struct{})
	srv, err := New(Config{
		Context:     newStreamContext(t, 8, pz.Config{Parallelism: 2}),
		MaxInflight: 1, MaxQueue: 4,
		OnJobStart: func(ctx context.Context, job *Job) {
			started <- job.ID()
			select {
			case <-gate:
			case <-ctx.Done():
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	spec := streamSpec("min-cost", workloads.StreamPredicates[0])

	// Background job canceled through the API.
	_, data := postQuery(t, ts.URL, spec, false, "")
	var j1 JobView
	if err := json.Unmarshal(data, &j1); err != nil {
		t.Fatal(err)
	}
	<-started
	resp, err := http.Post(ts.URL+"/v1/jobs/"+j1.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := awaitStatus(t, ts.URL, j1.ID); v.Status != StatusCanceled {
		t.Fatalf("canceled job: %+v", v)
	}

	// Synchronous query whose client disconnects mid-run.
	body, _ := json.Marshal(spec)
	cctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, ts.URL+"/v1/query?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		reqDone <- err
	}()
	id2 := <-started
	cancel()
	if err := <-reqDone; err == nil {
		t.Error("disconnected client got a response")
	}
	if v := awaitStatus(t, ts.URL, id2); v.Status != StatusCanceled {
		t.Fatalf("disconnected job: %+v", v)
	}

	// The slot is free again: a normal query still completes.
	gateOnce.Do(func() { close(gate) })
	resp4, data4 := postQuery(t, ts.URL, spec, true, "")
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel query: status %d: %s", resp4.StatusCode, data4)
	}
	var m Metrics
	getJSON(t, ts.URL+"/metrics?format=json", &m)
	if m.Counters["queries_canceled"] != 2 {
		t.Errorf("queries_canceled = %d, want 2", m.Counters["queries_canceled"])
	}
}

// TestServeTenantBudget: a tenant whose accumulated cost reached its
// budget is rejected with 402; other tenants are unaffected.
func TestServeTenantBudget(t *testing.T) {
	srv, err := New(Config{
		Context:       newStreamContext(t, 6, pz.Config{Parallelism: 2}),
		MaxInflight:   2,
		TenantBudgets: map[string]float64{"scrooge": 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	spec := streamSpec("min-cost", workloads.StreamPredicates[0])

	// First query is admitted (no spend yet) and accrues cost.
	resp, data := postQuery(t, ts.URL, spec, true, "scrooge")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first query: %d: %s", resp.StatusCode, data)
	}
	resp, data = postQuery(t, ts.URL, spec, true, "scrooge")
	if resp.StatusCode != http.StatusPaymentRequired {
		t.Fatalf("over-budget query: status %d, want 402: %s", resp.StatusCode, data)
	}
	// An unbudgeted tenant still runs.
	resp, data = postQuery(t, ts.URL, spec, true, "alice")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice: %d: %s", resp.StatusCode, data)
	}
	var m Metrics
	getJSON(t, ts.URL+"/metrics?format=json", &m)
	if m.Counters["rejected_budget"] != 1 {
		t.Errorf("rejected_budget = %d", m.Counters["rejected_budget"])
	}
	if u := m.Tenants["scrooge"]; u.Rejected != 1 || u.CostUSD <= 0 {
		t.Errorf("scrooge usage: %+v", u)
	}
}

// TestServeBadRequests: malformed specs and unknown jobs map to 4xx.
func TestServeBadRequests(t *testing.T) {
	srv, err := New(Config{Context: newStreamContext(t, 2, pz.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json: %d", resp.StatusCode)
	}
	if resp, _ := postQuery(t, ts.URL, &Spec{Dataset: DatasetSpec{Name: "missing"}}, true, ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown dataset: %d", resp.StatusCode)
	}
	spec := streamSpec("bogus-policy", "x")
	if resp, _ := postQuery(t, ts.URL, spec, true, ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad policy: %d", resp.StatusCode)
	}
	spec = streamSpec("min-cost", "x")
	spec.Ops = append(spec.Ops, OpSpec{Op: "frobnicate"})
	if resp, _ := postQuery(t, ts.URL, spec, true, ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown op: %d", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d", r.StatusCode)
	}
}

// TestServeRejectsEmptyRetrieveQuery: a retrieve op with an empty query
// is a bad request, refused before admission like an empty filter
// predicate, so it never runs and never counts as a failed query.
func TestServeRejectsEmptyRetrieveQuery(t *testing.T) {
	srv, err := New(Config{Context: newStreamContext(t, 4, pz.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := streamSpec("max-quality")
	spec.Ops = []OpSpec{{Op: "retrieve", K: 2}}
	resp, body := postQuery(t, ts.URL, spec, true, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty retrieve query: status %d, want 400: %s", resp.StatusCode, body)
	}
	if got := srv.Counters().Get("queries_failed"); got != 0 {
		t.Errorf("queries_failed = %d, want 0", got)
	}
}

// TestServeJobsList: GET /v1/jobs lists every retained job once, in
// submission order, including past the point where job IDs outgrow their
// six-digit padding.
func TestServeJobsList(t *testing.T) {
	srv, err := New(Config{Context: newStreamContext(t, 2, pz.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.mu.Lock()
	srv.seq = 999_997
	srv.mu.Unlock()
	var want []string
	for i := 0; i < 4; i++ {
		resp, body := postQuery(t, ts.URL, streamSpec("min-cost", "urgent"), true, "")
		var view JobView
		if err := json.Unmarshal(body, &view); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d, %v: %s", i, resp.StatusCode, err, body)
		}
		want = append(want, view.ID)
	}
	var views []JobView
	getJSON(t, ts.URL+"/v1/jobs", &views)
	var got []string
	for _, v := range views {
		got = append(got, v.ID)
	}
	if strings.Join(got, " ") != "job-999998 job-999999 job-1000000 job-1000001" || strings.Join(want, " ") != strings.Join(got, " ") {
		t.Fatalf("listed jobs %v, submitted %v", got, want)
	}
}

func TestServeRejectsOversizedBody(t *testing.T) {
	srv, err := New(Config{Context: newStreamContext(t, 2, pz.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := streamSpec("min-cost", strings.Repeat("urgent ", MaxRequestBytes/7+1))
	resp, body := postQuery(t, ts.URL, spec, false, "")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte predicate: status %d (%s), want 413", len(spec.Ops[0].Predicate), resp.StatusCode, body)
	}
}

// TestServeForgetsOldestFinishedJobs: the server remembers at most
// maxFinishedJobs finished jobs, forgetting the oldest finished first,
// and never forgets a job still running.
func TestServeForgetsOldestFinishedJobs(t *testing.T) {
	held := make(chan string, 1)
	release := make(chan struct{})
	var holding atomic.Bool
	srv, err := New(Config{
		Context: newStreamContext(t, 2, pz.Config{}),
		OnJobStart: func(ctx context.Context, job *Job) {
			if holding.CompareAndSwap(false, true) {
				held <- job.ID()
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func(id string) int {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if resp, body := postQuery(t, ts.URL, streamSpec("min-cost", "urgent"), false, ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status %d: %s", resp.StatusCode, body)
	}
	running := <-held
	var finished []string
	for i := 0; i <= maxFinishedJobs; i++ {
		resp, body := postQuery(t, ts.URL, streamSpec("min-cost", "urgent"), true, "")
		var view JobView
		if err := json.Unmarshal(body, &view); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d, %v: %s", i, resp.StatusCode, err, body)
		}
		finished = append(finished, view.ID)
	}
	if got := status(finished[0]); got != http.StatusNotFound {
		t.Errorf("oldest finished job answers %d, want 404", got)
	}
	if got := status(finished[1]); got != http.StatusOK {
		t.Errorf("second-oldest finished job answers %d, want 200", got)
	}
	if got := status(running); got != http.StatusOK {
		t.Errorf("running job answers %d, want 200", got)
	}
	var views []JobView
	getJSON(t, ts.URL+"/v1/jobs", &views)
	if len(views) != maxFinishedJobs+1 {
		t.Errorf("listed %d jobs, want %d finished + 1 running", len(views), maxFinishedJobs)
	}

	// Once the held job finishes it is the newest finished job, and the
	// oldest remaining one goes.
	close(release)
	if view := awaitStatus(t, ts.URL, running); view.Status != StatusDone {
		t.Fatalf("held job settled %s", view.Status)
	}
	if got := status(finished[1]); got != http.StatusNotFound {
		t.Errorf("second-oldest finished job answers %d after the held job finished, want 404", got)
	}
}

// explodingSource is a registered dataset whose reader panics.
type explodingSource struct{}

func (explodingSource) Name() string       { return "exploding" }
func (explodingSource) Schema() *pz.Schema { return pz.TextFile }
func (explodingSource) Stats() (dataset.SourceStats, error) {
	panic("source exploded")
}
func (explodingSource) Iterate(int, int, func(*pz.Record) error) error {
	panic("source exploded")
}
func (explodingSource) Embeddings() (*corpus.EmbedIndex, error) { return nil, nil }

// TestServePanickingSourceFailsOnlyItsJob: a query over a source that
// panics ends failed with the panic in its error, and the server goes on
// answering the next query.
func TestServePanickingSourceFailsOnlyItsJob(t *testing.T) {
	ctx := newStreamContext(t, 8, pz.Config{Parallelism: 2})
	if err := ctx.Register(explodingSource{}); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Context: ctx, MaxInflight: 2, MaxQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bad := &Spec{Dataset: DatasetSpec{Name: "exploding"}, Policy: "max-quality",
		Ops: []OpSpec{{Op: "filter", Predicate: "The ticket is urgent"}}}
	resp, body := postQuery(t, ts.URL, bad, false, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var accepted JobView
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	view := awaitStatus(t, ts.URL, accepted.ID)
	if view.Status != StatusFailed || !strings.Contains(view.Error, "source exploded") {
		t.Fatalf("panicking job: status %q error %q, want failed with the panic", view.Status, view.Error)
	}

	resp, body = postQuery(t, ts.URL, streamSpec("max-quality", workloads.StreamPredicates[0]), true, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after the panic: %d %s", resp.StatusCode, body)
	}
}
