package llm_test

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/ops"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/workloads"
)

// supportTicket is one generated support ticket, the record the
// corpus_scan workload sends through the request path.
func supportTicket(t testing.TB) *record.Record {
	t.Helper()
	docs := corpus.GenerateSupport(corpus.SupportConfig{NumTickets: 1, UrgentRate: 0.3, Seed: 7})
	recs, err := corpus.Records(docs, schema.TextFile, "tickets")
	if err != nil {
		t.Fatal(err)
	}
	return recs[0]
}

// TestRequestPathAllocs bounds the allocations of one LLM request, from
// building it through answering it, so a change that brings per-call
// formatting or text rebuilding back onto the path fails here.
func TestRequestPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	r := supportTicket(t)
	route, err := workloads.SupportRouteSchema()
	if err != nil {
		t.Fatal(err)
	}
	const model = "atlas-large"
	svc := llm.NewService()
	filter := ops.FilterRequest(model, workloads.SupportPredicate, r)
	extract := llm.Request{
		Model: model, Task: llm.TaskExtract,
		Record: r, Fields: route.Fields(),
	}
	cached, err := llm.NewCachedClient(svc, llm.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []llm.Request{filter, extract} {
		if _, err := cached.Complete(req); err != nil {
			t.Fatal(err)
		}
	}
	// A one-entry cache alternating the filter between two models misses,
	// calls, stores and evicts on every call.
	evicting, err := llm.NewCachedClient(svc, llm.NewCacheLRU(1))
	if err != nil {
		t.Fatal(err)
	}
	otherFilter := ops.FilterRequest("atlas-small", workloads.SupportPredicate, r)
	alternate := 0
	if _, _, err := svc.EmbedRecord("atlas-embed", r); err != nil {
		t.Fatal(err)
	}
	card, err := llm.Card(model)
	if err != nil {
		t.Fatal(err)
	}
	// The same kind of ticket as a scan reads it, its truth packed.
	scanned, _ := scannedRecords(t, corpus.DomainSupport, 1)
	scannedFilter := ops.FilterRequest(model, workloads.SupportPredicate, scanned[0])
	scannedExtract := extract
	scannedExtract.Record = scanned[0]
	llm.Decide(svc, card, scannedFilter, new(llm.Response))
	var resp llm.Response
	complete := func(c llm.Completer, req llm.Request) func() {
		return func() {
			if _, err := c.Complete(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"ops.FilterRequest", 0, func() { _ = ops.FilterRequest(model, workloads.SupportPredicate, r) }},
		{"uncached filter Service.Complete", 1, complete(svc, filter)},
		{"bonded extract Service.Complete", 5, complete(svc, extract)},
		{"filter cache hit", 1, complete(cached, filter)},
		// The response copy and its one extraction's slice and map.
		{"extract cache hit", 4, complete(cached, extract)},
		// The service's response only: the store reuses the slot of the
		// response it evicts.
		{"filter cache miss+store", 1, func() {
			alternate++
			req := filter
			if alternate%2 == 0 {
				req = otherFilter
			}
			if _, err := evicting.Complete(req); err != nil {
				t.Fatal(err)
			}
		}},
		// The service has seen the predicate and the ticket's labels, so
		// the oracle tokenizes nothing again.
		{"warmed filter oracle", 0, func() { llm.Decide(svc, card, filter, &resp) }},
		// A packed truth is read where it lies: no map is built.
		{"warmed filter oracle, scanned ticket", 0, func() { llm.Decide(svc, card, scannedFilter, &resp) }},
		{"bonded extract Service.Complete, scanned ticket", 5, complete(svc, scannedExtract)},
		// The ticket's vector is memoized, so only the *Response is new:
		// building the text would cost one more.
		{"EmbedRecord memo hit", 1, func() {
			if _, _, err := svc.EmbedRecord("atlas-embed", r); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, tc.run); got > tc.max {
			t.Errorf("%s: %.0f allocs per call, want <= %.0f", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %.0f allocs per call", tc.name, got)
		}
	}
}
