package llm

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lru"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/textutil"
)

// oracleRecords are the demo papers and a few hundred support tickets and
// financial filings: records whose truth has labels, topics, fields and
// mentions, so filters and extractions take every tokenizing path.
func oracleRecords(t *testing.T) []*record.Record {
	t.Helper()
	docs := corpus.GenerateBiomed(corpus.PaperDemoBiomed())
	docs = append(docs, corpus.GenerateSupport(corpus.SupportConfig{NumTickets: 120, UrgentRate: 0.3, Seed: 3})...)
	docs = append(docs, corpus.GenerateFinance(corpus.FinanceConfig{NumFilings: 120, ProfitableRate: 0.6, Seed: 3})...)
	recs, err := corpus.Records(docs, schema.TextFile, "mixed")
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// oracleRequests pairs every record with filters over several predicates
// and with an extraction.
func oracleRequests(t *testing.T) []Request {
	t.Helper()
	preds := []string{
		demoPredicate,
		"The ticket is urgent and needs immediate attention",
		"The filing reports a profitable fiscal year",
		"The paper discusses influenza vaccines",
	}
	fields := append(clinicalFields[:len(clinicalFields):len(clinicalFields)],
		schema.Field{Name: "fiscal_year", Type: schema.Int}, schema.Field{Name: "net_income_musd", Type: schema.Float})
	var reqs []Request
	for _, r := range oracleRecords(t) {
		for _, p := range preds {
			reqs = append(reqs, Request{Model: "pigeon-7b", Task: TaskFilter, Record: r, Predicate: p})
		}
		reqs = append(reqs, Request{Model: "pigeon-7b", Task: TaskExtract,
			Record: r, Fields: fields, OneToMany: true})
	}
	return reqs
}

// TestConcurrentCompleteDecisions: eight goroutines completing the same
// requests over one Service, so that they fill its terms memo together,
// get the decisions and extractions a fresh Service gives one by one.
func TestConcurrentCompleteDecisions(t *testing.T) {
	reqs := oracleRequests(t)
	answer := func(resp *Response) string {
		return fmt.Sprintf("%v %.9f %s", resp.Decision, resp.Confidence, resp.Text)
	}
	want := make([]string, len(reqs))
	seq := NewService()
	for i, req := range reqs {
		resp, err := seq.Complete(req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answer(resp)
	}
	const p = 8
	svc := NewService()
	got := make([][]string, p)
	var wg sync.WaitGroup
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]string, len(reqs))
			for k := range reqs {
				i := (k + g*len(reqs)/p) % len(reqs) // each goroutine starts elsewhere
				resp, err := svc.Complete(reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = answer(resp)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("goroutine %d's answers differ from the sequential run's", g)
		}
	}
}

// TestTermsMemoMatchesTerms: memoized terms are textutil.Terms, and the
// gold decision through a memo is GoldFilterDecision.
func TestTermsMemoMatchesTerms(t *testing.T) {
	m := lru.New(memoBytes, termsSize)
	for _, text := range []string{demoPredicate, "dataset_name", "public_url", "", "The Ticket's URGENT"} {
		for call := 0; call < 2; call++ {
			if got, want := termsOf(m, text), textutil.Terms(text); !reflect.DeepEqual(got, want) {
				t.Errorf("terms(%q) call %d = %q, want %q", text, call, got, want)
			}
		}
	}
	for _, r := range oracleRecords(t) {
		truth := corpus.TruthOf(r)
		for _, p := range []string{demoPredicate, "The ticket is urgent and needs immediate attention"} {
			if got, want := goldFilterDecision(m, truth.View(), p), GoldFilterDecision(truth, p); got != want {
				t.Fatalf("%s, %q: memoized decision %v, want %v", r.GetString("filename"), p, got, want)
			}
		}
	}
}

// TestTermsMemoBounded feeds a Service more distinct predicates than its
// terms memo holds: the memo stays within its bound, evicting the least
// recently used first, so the record's labels (tokenized on every call)
// and the newest predicates stay, and it keeps no text larger than itself.
func TestTermsMemoBounded(t *testing.T) {
	svc := NewService()
	r := demoRecords(t)[0]
	pred := func(i int) string { return strings.Repeat("colorectal cancer study ", 40) + fmt.Sprint(i) }
	size := termsSize(pred(0), textutil.Terms(pred(0)))
	n := memoBytes/size + 100
	filter := func(p string) {
		t.Helper()
		if _, err := svc.Complete(Request{Model: "atlas-small", Task: TaskFilter, Record: r, Predicate: p}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		filter(pred(i))
	}
	m := svc.terms
	st := m.Stats()
	if st.Size > memoBytes {
		t.Fatalf("memo holds %d bytes, bound %d", st.Size, memoBytes)
	}
	total, held := 0, 0
	for label := range corpus.TruthOf(r).Labels {
		if _, ok := m.Get(label); !ok {
			t.Errorf("label %q was evicted", label)
		}
		total += termsSize(label, textutil.Terms(label))
		held++
	}
	evicted := false
	for i := n - 1; i >= 0; i-- {
		_, ok := m.Get(pred(i))
		if ok && evicted {
			t.Fatalf("predicate %d is held after a newer one was evicted", i)
		}
		if ok {
			total += termsSize(pred(i), textutil.Terms(pred(i)))
			held++
		}
		evicted = evicted || !ok
	}
	if held != st.Len || total != st.Size {
		t.Fatalf("memo has %d entries and counts %d bytes; its labels and predicates hold %d and %d",
			st.Len, st.Size, held, total)
	}
	if _, ok := m.Get(pred(0)); ok {
		t.Error("oldest entry was not evicted")
	}
	if _, ok := m.Get(pred(n - 1)); !ok {
		t.Error("newest entry is missing")
	}
	big := strings.Repeat("colorectal ", memoBytes/10)
	termsOf(m, big)
	if _, ok := m.Get(big); ok || m.Stats().Size > memoBytes {
		t.Errorf("a text larger than the memo was memoized (%d bytes held)", m.Stats().Size)
	}
}
