package llm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/record"
	"repro/internal/schema"
)

func cacheTestRecord(t *testing.T) *record.Record {
	t.Helper()
	docs := corpus.GenerateBiomed(corpus.PaperDemoBiomed())
	recs, err := corpus.Records(docs[:1], schema.PDFFile, "demo")
	if err != nil {
		t.Fatal(err)
	}
	return recs[0]
}

func TestCachedClientHitSemantics(t *testing.T) {
	svc := NewService()
	cache := NewCache()
	client, err := NewCachedClient(svc, cache)
	if err != nil {
		t.Fatal(err)
	}
	r := cacheTestRecord(t)
	req := Request{Model: "atlas-large", Task: TaskFilter,
		Record: r, Predicate: "about colorectal cancer"}

	first, err := client.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CostUSD <= 0 {
		t.Fatal("miss should cost")
	}
	second, err := client.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if second.CostUSD != 0 || second.Latency != 0 {
		t.Errorf("hit charged cost=%v latency=%v", second.CostUSD, second.Latency)
	}
	if second.Decision != first.Decision {
		t.Error("hit decision differs")
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %d/%d", st.Hits, st.Misses)
	}
	if st.SavedUSD != first.CostUSD {
		t.Errorf("saved = %v, want %v", st.SavedUSD, first.CostUSD)
	}
	if svc.TotalCalls() != 1 {
		t.Errorf("service called %d times, want 1", svc.TotalCalls())
	}
}

func TestCacheKeyIgnoresPromptCosmetics(t *testing.T) {
	svc := NewService()
	cache := NewCache()
	client, _ := NewCachedClient(svc, cache)
	r := cacheTestRecord(t)
	a := Request{Model: "atlas-large", Task: TaskExtract, Desc: "wording A", Record: r,
		Fields: []schema.Field{{Name: "name", Type: schema.String, Desc: "the name"}}}
	b := a
	b.Desc = "totally different wording"
	b.Fields = []schema.Field{{Name: "name", Type: schema.String, Desc: "what it is called"}}
	if _, err := client.Complete(a); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Complete(b); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Errorf("cosmetically different prompt missed the cache: hits=%d", st.Hits)
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	svc := NewService()
	cache := NewCache()
	client, _ := NewCachedClient(svc, cache)
	r := cacheTestRecord(t)
	base := Request{Model: "atlas-large", Task: TaskFilter,
		Record: r, Predicate: "about colorectal cancer"}
	variants := []Request{base}
	v2 := base
	v2.Model = "atlas-small"
	v3 := base
	v3.Predicate = "about influenza"
	v4 := base
	v4.Task = TaskExtract
	v4.Fields = []schema.Field{{Name: "name", Type: schema.String}}
	variants = append(variants, v2, v3, v4)
	for _, req := range variants {
		if _, err := client.Complete(req); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != len(variants) {
		t.Errorf("distinct requests collided: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if cache.Len() != len(variants) {
		t.Errorf("cache len = %d", cache.Len())
	}
}

func TestCachedExtractionIsolation(t *testing.T) {
	// Mutating a cached extraction must not corrupt later hits.
	svc := NewService()
	cache := NewCache()
	client, _ := NewCachedClient(svc, cache)
	r := cacheTestRecord(t)
	req := Request{Model: "atlas-large", Task: TaskExtract,
		Record: r, OneToMany: true,
		Fields: []schema.Field{{Name: "name", Type: schema.String}, {Name: "url", Type: schema.String}}}
	first, err := client.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Extractions) == 0 {
		t.Skip("record has no extractions")
	}
	orig := first.Extractions[0]["name"]
	first.Extractions[0]["name"] = "MUTATED"
	second, err := client.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Extractions[0]["name"] != orig {
		t.Error("cache entry corrupted by caller mutation")
	}
}

func TestCachedClientValidation(t *testing.T) {
	if _, err := NewCachedClient(nil, NewCache()); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewCachedClient(NewService(), nil); err == nil {
		t.Error("nil cache accepted")
	}
	client, _ := NewCachedClient(NewService(), NewCache())
	if _, err := client.Complete(Request{Model: "atlas-large", Task: TaskFilter}); err == nil {
		t.Error("nil record passed through without error")
	}
}

// TestCacheLRUEviction: a bounded cache evicts in least-recently-used
// order, counts evictions, and keeps saved-USD accounting honest — an
// evicted entry's next lookup is a fresh miss that pays full price, and
// only genuine hits accumulate savings.
func TestCacheLRUEviction(t *testing.T) {
	svc := NewService()
	cache := NewCacheLRU(2)
	client, err := NewCachedClient(svc, cache)
	if err != nil {
		t.Fatal(err)
	}
	docs := corpus.GenerateBiomed(corpus.PaperDemoBiomed())
	recs, err := corpus.Records(docs[:3], schema.PDFFile, "demo")
	if err != nil {
		t.Fatal(err)
	}
	req := func(i int) Request {
		return Request{Model: "atlas-large", Task: TaskFilter,
			Record: recs[i], Predicate: "about cancer"}
	}

	costs := make([]float64, 3)
	for i := 0; i < 2; i++ { // fill: [1, 0] (front = most recent)
		resp, err := client.Complete(req(i))
		if err != nil {
			t.Fatal(err)
		}
		costs[i] = resp.CostUSD
	}
	if _, err := client.Complete(req(0)); err != nil { // touch 0: [0, 1]
		t.Fatal(err)
	}
	if _, err := client.Complete(req(2)); err != nil { // insert 2: evicts 1
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Evictions != 1 || st.Len != 2 || st.Capacity != 2 {
		t.Fatalf("after eviction: %+v", st)
	}
	// Record 0 was kept (recently used), record 1 was evicted.
	if _, err := client.Complete(req(0)); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats(); got.Hits != st.Hits+1 {
		t.Errorf("kept entry missed: hits %d -> %d", st.Hits, got.Hits)
	}
	before := cache.Stats()
	resp1, err := client.Complete(req(1))
	if err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if resp1.CostUSD != costs[1] {
		t.Errorf("evicted entry re-fetch cost $%v, want full price $%v", resp1.CostUSD, costs[1])
	}
	if after.Misses != before.Misses+1 {
		t.Errorf("evicted entry should miss: misses %d -> %d", before.Misses, after.Misses)
	}
	if after.Evictions != 2 {
		t.Errorf("re-inserting over a full cache should evict again: evictions=%d", after.Evictions)
	}
	// Savings = sum of hit costs: one hit on 0's entry, then another.
	wantSaved := costs[0] * 2
	if diff := after.SavedUSD - wantSaved; diff < -1e-12 || diff > 1e-12 {
		t.Errorf("saved = %v, want %v", after.SavedUSD, wantSaved)
	}
}

// TestCacheUnboundedNeverEvicts: the default cache keeps every entry.
func TestCacheUnboundedNeverEvicts(t *testing.T) {
	svc := NewService()
	cache := NewCache()
	client, _ := NewCachedClient(svc, cache)
	docs := corpus.GenerateBiomed(corpus.PaperDemoBiomed())
	recs, err := corpus.Records(docs, schema.PDFFile, "demo")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		req := Request{Model: "atlas-small", Task: TaskFilter,
			Record: r, Predicate: "x"}
		if _, err := client.Complete(req); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Evictions != 0 || st.Len != len(recs) || st.Capacity != 0 {
		t.Errorf("unbounded cache stats: %+v", st)
	}
}

// blockingCompleter passes requests on to a Service, holding every call
// until release is closed; entered is closed when the first call arrives.
type blockingCompleter struct {
	svc              *Service
	calls            atomic.Int32
	entered, release chan struct{}
}

func (b *blockingCompleter) Complete(req Request) (*Response, error) {
	if b.calls.Add(1) == 1 {
		close(b.entered)
	}
	<-b.release
	return b.svc.Complete(req)
}

// TestCachedClientSingleFlight: two goroutines sending one request while
// the first's call is in flight make one inner call and pay once; the
// second gets the first's answer as a hit.
func TestCachedClientSingleFlight(t *testing.T) {
	svc := NewService()
	inner := &blockingCompleter{svc: svc, entered: make(chan struct{}), release: make(chan struct{})}
	cache := NewCache()
	client, err := NewCachedClient(inner, cache)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Model: "atlas-large", Task: TaskFilter,
		Record: cacheTestRecord(t), Predicate: "about colorectal cancer"}
	resps := make([]*Response, 2)
	var wg sync.WaitGroup
	send := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Complete(req)
			if err != nil {
				t.Error(err)
				return
			}
			resps[i] = resp
		}()
	}
	send(0)
	<-inner.entered
	send(1)
	// Release the first call only once the second request has looked the
	// cache up.
	for st := cache.Stats(); st.Hits+st.Misses < 2; st = cache.Stats() {
		runtime.Gosched()
	}
	close(inner.release)
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := inner.calls.Load(); n != 1 {
		t.Errorf("%d inner calls, want 1", n)
	}
	if cost := resps[0].CostUSD; svc.TotalCost() != cost || resps[1].CostUSD != 0 {
		t.Errorf("charged $%v over %d calls, want one charge of $%v", svc.TotalCost(), svc.TotalCalls(), cost)
	}
	if resps[1].Decision != resps[0].Decision || !resps[1].Cached {
		t.Errorf("second response %+v is not the first's answer as a hit", *resps[1])
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 || st.SavedUSD != resps[0].CostUSD {
		t.Errorf("stats %+v, want 1 hit, 1 miss, $%v saved", st, resps[0].CostUSD)
	}
}
