package llm

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/vector"
)

// demoRecords returns the paper-demo biomedical records.
func demoRecords(t *testing.T) []*record.Record {
	t.Helper()
	docs := corpus.GenerateBiomed(corpus.PaperDemoBiomed())
	recs, err := corpus.Records(docs, schema.PDFFile, "sigmod-demo")
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

const demoPredicate = "The papers are about colorectal cancer"

var clinicalFields = []schema.Field{
	{Name: "name", Type: schema.String, Desc: "The name of the clinical data dataset"},
	{Name: "description", Type: schema.String, Desc: "A short description of the content of the dataset"},
	{Name: "url", Type: schema.String, Desc: "The public URL where the dataset can be accessed"},
}

func TestCatalogShape(t *testing.T) {
	models := Catalog()
	if len(models) < 4 {
		t.Fatalf("catalog has %d models", len(models))
	}
	for i := 1; i < len(models); i++ {
		if models[i].Quality > models[i-1].Quality {
			t.Error("catalog not sorted by quality desc")
		}
	}
	comp := CompletionModels()
	for _, c := range comp {
		if c.Embedding {
			t.Errorf("%s: embedding model in completion list", c.Name)
		}
	}
}

func TestCardLookup(t *testing.T) {
	c, err := Card("atlas-large")
	if err != nil || c.Quality != 0.95 {
		t.Fatalf("Card = %+v, %v", c, err)
	}
	if _, err := Card("nope"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestCostAndLatencyMonotone(t *testing.T) {
	large, small := MustCard("atlas-large"), MustCard("atlas-small")
	if large.Cost(1000, 500) <= small.Cost(1000, 500) {
		t.Error("large model should cost more")
	}
	if large.Latency(1000, 200) <= small.Latency(1000, 200) {
		t.Error("large model should be slower")
	}
	if small.Latency(0, 1000) <= small.Latency(0, 10) {
		t.Error("latency should grow with output tokens")
	}
}

func TestAccuracyTiers(t *testing.T) {
	if acc := MustCard("atlas-large").FilterAccuracy(); acc != 1.0 {
		t.Errorf("top model filter accuracy = %v, want 1.0", acc)
	}
	prev := 2.0
	for _, c := range CompletionModels() {
		fa := c.FilterAccuracy()
		if fa > prev {
			t.Errorf("filter accuracy not monotone in quality: %s", c.Name)
		}
		prev = fa
		if ea := c.ExtractAccuracy(); ea <= 0 || ea > 1 {
			t.Errorf("%s extract accuracy = %v", c.Name, ea)
		}
	}
}

func TestCountTokens(t *testing.T) {
	if CountTokens("") != 0 {
		t.Error("empty text has tokens")
	}
	if CountTokens("abcd") != 1 {
		t.Errorf("CountTokens(abcd) = %d", CountTokens("abcd"))
	}
	if CountTokens(strings.Repeat("x", 400)) != 100 {
		t.Errorf("CountTokens(400 chars) = %d", CountTokens(strings.Repeat("x", 400)))
	}
}

func TestGoldModelFilterIsExact(t *testing.T) {
	svc := NewService()
	recs := demoRecords(t)
	kept := 0
	for _, r := range recs {
		resp, err := svc.Complete(Request{
			Model: "atlas-large", Task: TaskFilter,
			Record:    r,
			Predicate: demoPredicate,
		})
		if err != nil {
			t.Fatal(err)
		}
		truth := corpus.TruthOf(r)
		want := truth.HasTopic(corpus.ColorectalTopic)
		if resp.Decision != want {
			t.Errorf("%s: decision %v, truth %v", r.GetString("filename"), resp.Decision, want)
		}
		if resp.Decision {
			kept++
		}
	}
	if kept != 5 {
		t.Errorf("kept %d papers, want 5 (ground truth)", kept)
	}
}

func TestWeakModelMakesErrors(t *testing.T) {
	// Across many predicates+records, pigeon-7b must disagree with truth at
	// least once (its accuracy is ~0.86).
	svc := NewService()
	recs := demoRecords(t)
	preds := []string{
		demoPredicate,
		"The paper is about breast cancer",
		"The paper discusses influenza vaccines",
		"The document is about diabetes monitoring",
		"The study concerns gene mutation",
	}
	errs := 0
	for _, p := range preds {
		for _, r := range recs {
			resp, err := svc.Complete(Request{Model: "pigeon-7b", Task: TaskFilter,
				Record: r, Predicate: p})
			if err != nil {
				t.Fatal(err)
			}
			truth := corpus.TruthOf(r)
			if resp.Decision != GoldFilterDecision(truth, p) {
				errs++
			}
		}
	}
	if errs == 0 {
		t.Error("weak model made no errors across 55 judgements")
	}
	if errs > 20 {
		t.Errorf("weak model made %d/55 errors; accuracy model too weak", errs)
	}
}

func TestFilterDeterministic(t *testing.T) {
	svc := NewService()
	r := demoRecords(t)[0]
	req := Request{Model: "atlas-small", Task: TaskFilter, Record: r, Predicate: demoPredicate}
	a, err := svc.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Decision != b.Decision {
		t.Error("same request, different decisions")
	}
}

func TestGoldExtractionRecoversAllDatasets(t *testing.T) {
	svc := NewService()
	recs := demoRecords(t)
	urls := map[string]bool{}
	total := 0
	for _, r := range recs {
		truth := corpus.TruthOf(r)
		if !truth.HasTopic(corpus.ColorectalTopic) {
			continue
		}
		resp, err := svc.Complete(Request{
			Model: "atlas-large", Task: TaskExtract, Record: r,
			Fields: clinicalFields, OneToMany: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range resp.Extractions {
			total++
			urls[ex["url"]] = true
			if ex["name"] == "" || ex["url"] == "" {
				t.Errorf("empty extraction fields: %v", ex)
			}
		}
	}
	if total != 6 || len(urls) != 6 {
		t.Errorf("extracted %d datasets (%d unique urls), want 6 — the paper's number", total, len(urls))
	}
}

func TestExtractOneToOneTruncates(t *testing.T) {
	svc := NewService()
	for _, r := range demoRecords(t) {
		truth := corpus.TruthOf(r)
		if len(truth.MentionsOfKind(corpus.DatasetMentionKind)) < 2 {
			continue
		}
		resp, err := svc.Complete(Request{Model: "atlas-large", Task: TaskExtract,
			Record: r, Fields: clinicalFields, OneToMany: false})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Extractions) > 1 {
			t.Errorf("one-to-one returned %d extractions", len(resp.Extractions))
		}
		return
	}
	t.Skip("no multi-mention record in corpus")
}

func TestScalarExtractionFromLegal(t *testing.T) {
	docs := corpus.GenerateLegal(corpus.DefaultLegal())
	recs, err := corpus.Records(docs, schema.TextFile, "legal")
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService()
	fields := []schema.Field{
		{Name: "party_a", Type: schema.String},
		{Name: "effective_date", Type: schema.String},
	}
	r := recs[0]
	resp, err := svc.Complete(Request{Model: "atlas-large", Task: TaskExtract,
		Record: r, Fields: fields, OneToMany: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Extractions) != 1 {
		t.Fatalf("extractions = %d", len(resp.Extractions))
	}
	truth := corpus.TruthOf(r)
	if got := resp.Extractions[0]["party_a"]; got != truth.Fields["party_a"] {
		t.Errorf("party_a = %q, want %q", got, truth.Fields["party_a"])
	}
	if got := resp.Extractions[0]["effective_date"]; got != truth.Fields["effective_date"] {
		t.Errorf("effective_date = %q, want %q", got, truth.Fields["effective_date"])
	}
}

func TestNumericFieldExtraction(t *testing.T) {
	docs := corpus.GenerateRealEstate(corpus.RealEstateConfig{NumListings: 3, ModernRate: 1, Seed: 2})
	recs, _ := corpus.Records(docs, schema.TextFile, "re")
	svc := NewService()
	fields := []schema.Field{{Name: "bedrooms", Type: schema.Int}, {Name: "price", Type: schema.Float}}
	resp, err := svc.Complete(Request{Model: "atlas-large", Task: TaskExtract,
		Record: recs[0], Fields: fields})
	if err != nil {
		t.Fatal(err)
	}
	truth := corpus.TruthOf(recs[0])
	ex := resp.Extractions[0]
	if want := int64(truth.Numbers["bedrooms"]); ex["bedrooms"] != fmtInt(want) {
		t.Errorf("bedrooms = %q, want %d", ex["bedrooms"], want)
	}
	if ex["price"] == "" {
		t.Error("price empty")
	}
}

func fmtInt(n int64) string {
	return strings.TrimSpace(strings.Fields(strings.Repeat(" ", 0) + itoa(n))[0])
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestHeuristicExtractWithoutTruth(t *testing.T) {
	text := "Interesting Study Title\nWe used data available at https://data.example.org/set1 in this work."
	r := record.MustNew(schema.TextFile, map[string]any{"filename": "u.txt", "contents": text})
	svc := NewService()
	resp, err := svc.Complete(Request{Model: "atlas-large", Task: TaskExtract,
		Record: r, Fields: clinicalFields, OneToMany: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Extractions) != 1 {
		t.Fatalf("extractions = %d", len(resp.Extractions))
	}
	if got := resp.Extractions[0]["url"]; got != "https://data.example.org/set1" {
		t.Errorf("url = %q", got)
	}
}

func TestHeuristicFilterWithoutTruth(t *testing.T) {
	yes := record.MustNew(schema.TextFile, map[string]any{"contents": "a paper about colorectal cancer tumors"})
	no := record.MustNew(schema.TextFile, map[string]any{"contents": "annual mortgage refinancing report"})
	svc := NewService()
	for _, tc := range []struct {
		r    *record.Record
		want bool
	}{{yes, true}, {no, false}} {
		resp, err := svc.Complete(Request{Model: "atlas-large", Task: TaskFilter,
			Record: tc.r, Predicate: "colorectal cancer"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Decision != tc.want {
			t.Errorf("decision = %v, want %v", resp.Decision, tc.want)
		}
	}
}

func TestAccountingAccumulates(t *testing.T) {
	svc := NewService()
	r := demoRecords(t)[0]
	for i := 0; i < 3; i++ {
		if _, err := svc.Complete(Request{Model: "atlas-medium", Task: TaskFilter,
			Record: r, Predicate: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	u := svc.Usage()["atlas-medium"]
	if u.Calls != 3 || u.InputTokens == 0 || u.CostUSD <= 0 || u.Latency <= 0 {
		t.Fatalf("usage = %+v", u)
	}
	if svc.TotalCalls() != 3 {
		t.Errorf("TotalCalls = %d", svc.TotalCalls())
	}
	if svc.TotalCost() != u.CostUSD {
		t.Errorf("TotalCost = %v, want %v", svc.TotalCost(), u.CostUSD)
	}
}

func TestUsageReportFormat(t *testing.T) {
	svc := NewService()
	r := demoRecords(t)[0]
	_, _ = svc.Complete(Request{Model: "atlas-small", Task: TaskFilter, Record: r, Predicate: "x"})
	rep := svc.UsageReport()
	if !strings.Contains(rep, "atlas-small") || !strings.Contains(rep, "cost_usd") {
		t.Errorf("report = %q", rep)
	}
}

func TestRequestValidation(t *testing.T) {
	svc := NewService()
	r := record.MustNew(schema.TextFile, map[string]any{"contents": "x"})
	cases := []Request{
		{Model: "nope", Task: TaskFilter, Record: r},
		{Model: "atlas-embed", Task: TaskFilter, Record: r},
		{Model: "atlas-large", Task: TaskFilter},
		{Model: "atlas-large", Task: Task(99), Record: r},
	}
	for i, req := range cases {
		if _, err := svc.Complete(req); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestContextWindowEnforced(t *testing.T) {
	svc := NewService()
	r := record.MustNew(schema.TextFile, map[string]any{"contents": strings.Repeat("a", 33000*4+10)})
	if _, err := svc.Complete(Request{Model: "pigeon-7b", Task: TaskFilter,
		Record: r, Predicate: "x"}); err == nil || !strings.Contains(err.Error(), "context window") {
		t.Fatalf("err = %v", err)
	}
}

func TestFailureInjectionAndRetry(t *testing.T) {
	svc := NewService().WithFailureRate(0.5)
	r := record.MustNew(schema.TextFile, map[string]any{"contents": "colorectal cancer"})
	req := Request{Model: "atlas-small", Task: TaskFilter, Record: r, Predicate: "cancer"}
	sawFailure := false
	for i := 0; i < 20; i++ {
		if _, err := svc.Complete(req); err != nil {
			if !IsTransient(err) {
				t.Fatalf("non-transient error: %v", err)
			}
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Fatal("failure rate 0.5 produced no failures in 20 calls")
	}

	// Retry client recovers.
	clock := newTestClock()
	rc, err := NewRetryClient(svc, clock, 8, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rc.Complete(req)
	if err != nil {
		t.Fatalf("retry client failed: %v", err)
	}
	if resp.Decision != true {
		t.Error("decision wrong after retry")
	}
}

func TestRetryClientExhaustsAttempts(t *testing.T) {
	svc := NewService().WithFailureRate(1.0)
	r := record.MustNew(schema.TextFile, map[string]any{"contents": "x"})
	clock := newTestClock()
	rc, _ := NewRetryClient(svc, clock, 3, 10*time.Millisecond)
	_, err := rc.Complete(Request{Model: "atlas-small", Task: TaskFilter, Record: r, Predicate: "x"})
	if err == nil {
		t.Fatal("expected exhaustion error")
	}
	if !strings.Contains(err.Error(), "3/3") {
		t.Errorf("err = %v", err)
	}
	// Two backoffs (after attempts 1 and 2): 10ms + 20ms.
	if got := clock.Elapsed(); got != 30*time.Millisecond {
		t.Errorf("backoff elapsed = %v, want 30ms", got)
	}
}

func TestRetryClientValidation(t *testing.T) {
	if _, err := NewRetryClient(nil, newTestClock(), 1, 0); err == nil {
		t.Error("nil service accepted")
	}
	if _, err := NewRetryClient(NewService(), newTestClock(), 0, 0); err == nil {
		t.Error("zero attempts accepted")
	}
}

func TestEmbedBasics(t *testing.T) {
	svc := NewService()
	vec, resp, err := svc.Embed("atlas-embed", "colorectal cancer study")
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != EmbedDim {
		t.Fatalf("dim = %d", len(vec))
	}
	if resp.CostUSD <= 0 {
		t.Error("embedding not charged")
	}
	var n float64
	for _, x := range vec {
		n += x * x
	}
	if math.Abs(n-1) > 1e-9 {
		t.Errorf("norm = %v, want 1", n)
	}
	if _, _, err := svc.Embed("atlas-large", "x"); err == nil {
		t.Error("completion model accepted for embedding")
	}
	if _, _, err := svc.Embed("atlas-embed", ""); err == nil {
		t.Error("empty text accepted")
	}
}

func TestEmbedSimilarityStructure(t *testing.T) {
	a := EmbedVector("colorectal cancer gene mutation study")
	b := EmbedVector("a study of gene mutation in colorectal cancer")
	c := EmbedVector("modern renovated kitchen with quartz countertops")
	if vector.Cosine(a, b) <= vector.Cosine(a, c) {
		t.Errorf("similar texts score %.3f, dissimilar %.3f", vector.Cosine(a, b), vector.Cosine(a, c))
	}
	if sim := vector.Cosine(a, a); math.Abs(sim-1) > 1e-9 {
		t.Errorf("self-similarity = %v", sim)
	}
}

func TestKeysMatch(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"url", "url", true},
		{"dataset_name", "name", true},
		{"public_url", "url", true},
		{"effective_date", "effective_date", true},
		{"price", "bedrooms", false},
		{"name", "description", false},
	}
	for _, c := range cases {
		if got := keysMatch(nil, c.a, c.b); got != c.want {
			t.Errorf("keysMatch(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestGarbleDetectable(t *testing.T) {
	if garble("") != "" {
		t.Error("garble of empty changed")
	}
	if garble("TCGA-COAD") == "TCGA-COAD" {
		t.Error("garble did not change single token")
	}
	if garble("a longer description") == "a longer description" {
		t.Error("garble did not change phrase")
	}
}
