package metrics

import (
	"math"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/ops"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/simclock"
)

var clinical = schema.MustNew("ClinicalData", "Datasets from papers.",
	schema.Field{Name: "name", Type: schema.String, Desc: "dataset name"},
	schema.Field{Name: "description", Type: schema.String, Desc: "description"},
	schema.Field{Name: "url", Type: schema.String, Desc: "public URL"},
)

const demoPredicate = "The papers are about colorectal cancer"

func biomedRecords(t *testing.T) []*record.Record {
	t.Helper()
	docs := corpus.GenerateBiomed(corpus.PaperDemoBiomed())
	recs, err := corpus.Records(docs, schema.PDFFile, "demo")
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func newCtx(t *testing.T) *ops.Ctx {
	t.Helper()
	svc := llm.NewService()
	clock := simclock.NewSim()
	client, err := llm.NewRetryClient(svc, clock, 3, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	return &ops.Ctx{Client: client, Svc: svc, Clock: clock, Parallelism: 1, Stats: ops.NewRunStats()}
}

func TestPRFComputation(t *testing.T) {
	m := prf(6, 2, 3)
	if math.Abs(m.Precision-0.75) > 1e-9 {
		t.Errorf("P = %v", m.Precision)
	}
	if math.Abs(m.Recall-6.0/9.0) > 1e-9 {
		t.Errorf("R = %v", m.Recall)
	}
	wantF1 := 2 * 0.75 * (6.0 / 9.0) / (0.75 + 6.0/9.0)
	if math.Abs(m.F1-wantF1) > 1e-9 {
		t.Errorf("F1 = %v, want %v", m.F1, wantF1)
	}
	zero := prf(0, 0, 0)
	if zero.Precision != 0 || zero.Recall != 0 || zero.F1 != 0 {
		t.Errorf("zero prf = %+v", zero)
	}
	if m.String() == "" {
		t.Error("empty String")
	}
}

func TestFilterQualityPerfect(t *testing.T) {
	recs := biomedRecords(t)
	var kept []*record.Record
	for _, r := range recs {
		if llm.GoldFilterDecision(corpus.TruthOf(r), demoPredicate) {
			kept = append(kept, r)
		}
	}
	m := FilterQuality(recs, kept, demoPredicate)
	if m.F1 != 1 || m.TP != 5 || m.FP != 0 || m.FN != 0 {
		t.Fatalf("perfect filter = %v", m)
	}
}

func TestFilterQualityWithErrors(t *testing.T) {
	recs := biomedRecords(t)
	var gold []*record.Record
	for _, r := range recs {
		if llm.GoldFilterDecision(corpus.TruthOf(r), demoPredicate) {
			gold = append(gold, r)
		}
	}
	// Miss one relevant, add one irrelevant.
	var kept []*record.Record
	kept = append(kept, gold[1:]...)
	for _, r := range recs {
		if !llm.GoldFilterDecision(corpus.TruthOf(r), demoPredicate) {
			kept = append(kept, r)
			break
		}
	}
	m := FilterQuality(recs, kept, demoPredicate)
	if m.TP != 4 || m.FP != 1 || m.FN != 1 {
		t.Fatalf("metrics = %v", m)
	}
	if m.F1 >= 1 {
		t.Error("imperfect filter scored 1.0")
	}
}

// TestFilterQualityByTruthCollapsesDuplicates: inputs that share a truth
// are one observation, whether the filter kept that truth or missed it,
// so reading every input twice scores the same as reading it once.
func TestFilterQualityByTruthCollapsesDuplicates(t *testing.T) {
	recs := biomedRecords(t)
	var gold, other []*record.Record
	for _, r := range recs {
		if llm.GoldFilterDecision(corpus.TruthOf(r), demoPredicate) {
			gold = append(gold, r)
		} else {
			other = append(other, r)
		}
	}
	kept := append(append([]*record.Record{}, gold[1:]...), other[0])
	want := PRF{TP: len(gold) - 1, FP: 1, FN: 1}
	for name, inputs := range map[string][]*record.Record{"once": recs, "twice": append(append([]*record.Record{}, recs...), recs...)} {
		m := FilterQualityByTruth(inputs, kept, demoPredicate)
		if m.TP != want.TP || m.FP != want.FP || m.FN != want.FN {
			t.Fatalf("%s: metrics = %v, want tp=%d fp=%d fn=%d", name, m, want.TP, want.FP, want.FN)
		}
	}
}

func TestFilterQualitySkipsNoTruth(t *testing.T) {
	r := record.MustNew(schema.TextFile, map[string]any{"contents": "x"})
	m := FilterQuality([]*record.Record{r}, nil, "anything")
	if m.TP+m.FP+m.FN != 0 {
		t.Errorf("no-truth records counted: %v", m)
	}
}

func TestExtractionQualityGoldPipeline(t *testing.T) {
	recs := biomedRecords(t)
	ctx := newCtx(t)
	filter := &ops.LLMFilterExec{Filter: &ops.Filter{Predicate: demoPredicate}, Model: "atlas-large"}
	kept, err := filter.Execute(ctx, recs)
	if err != nil {
		t.Fatal(err)
	}
	conv := &ops.LLMConvertExec{
		Convert: &ops.Convert{Target: clinical, Desc: clinical.Doc(), Card: ops.OneToMany},
		Model:   "atlas-large", Bonded: true,
	}
	out, err := conv.Execute(ctx, kept)
	if err != nil {
		t.Fatal(err)
	}
	m := ExtractionQuality(recs, out, corpus.DatasetMentionKind)
	if m.F1 != 1 || m.TP != 6 {
		t.Fatalf("gold pipeline extraction = %v, want perfect 6/6", m)
	}
}

func TestExtractionQualityWeakModelLower(t *testing.T) {
	recs := biomedRecords(t)
	score := func(model string) float64 {
		ctx := newCtx(t)
		var kept []*record.Record
		for _, r := range recs {
			if llm.GoldFilterDecision(corpus.TruthOf(r), demoPredicate) {
				kept = append(kept, r)
			}
		}
		conv := &ops.LLMConvertExec{
			Convert: &ops.Convert{Target: clinical, Desc: clinical.Doc(), Card: ops.OneToMany},
			Model:   model, Bonded: true,
		}
		out, err := conv.Execute(ctx, kept)
		if err != nil {
			t.Fatal(err)
		}
		return ExtractionQuality(recs, out, corpus.DatasetMentionKind).F1
	}
	gold, weak := score("atlas-large"), score("pigeon-7b")
	if weak >= gold {
		t.Errorf("weak model F1 %.3f >= gold F1 %.3f", weak, gold)
	}
}

func TestExtractionQualityCountsGarbledAsWrong(t *testing.T) {
	recs := biomedRecords(t)
	var src *record.Record
	for _, r := range recs {
		if len(corpus.TruthOf(r).MentionsOfKind(corpus.DatasetMentionKind)) > 0 {
			src = r
			break
		}
	}
	m := corpus.TruthOf(src).MentionsOfKind(corpus.DatasetMentionKind)[0]
	bad, err := src.Derive(clinical, map[string]any{
		"name": m.Fields["name"] + "-x", // garbled
		"url":  m.Fields["url"],
	})
	if err != nil {
		t.Fatal(err)
	}
	q := ExtractionQuality([]*record.Record{src}, []*record.Record{bad}, corpus.DatasetMentionKind)
	if q.TP != 0 || q.FP != 1 {
		t.Errorf("garbled extraction scored as correct: %v", q)
	}
}

func TestFieldAccuracy(t *testing.T) {
	docs := corpus.GenerateLegal(corpus.LegalConfig{NumContracts: 6, IndemnificationRate: 0.5, Seed: 4})
	recs, _ := corpus.Records(docs, schema.TextFile, "legal")
	parties := schema.MustNew("Parties", "",
		schema.Field{Name: "party_a", Type: schema.String},
	)
	var outs []*record.Record
	for i, r := range recs {
		v := corpus.TruthOf(r).Fields["party_a"]
		if i == 0 {
			v = "Wrong Corp"
		}
		d, err := r.Derive(parties, map[string]any{"party_a": v})
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, d)
	}
	acc, n := FieldAccuracy(outs, "party_a", "party_a")
	if n != 6 {
		t.Fatalf("compared %d", n)
	}
	if math.Abs(acc-5.0/6.0) > 1e-9 {
		t.Errorf("accuracy = %v", acc)
	}
	if _, n := FieldAccuracy(outs, "party_a", "no_such_field"); n != 0 {
		t.Errorf("bogus gold field compared %d", n)
	}
}

func TestFieldAccuracyNumeric(t *testing.T) {
	docs := corpus.GenerateRealEstate(corpus.RealEstateConfig{NumListings: 3, ModernRate: 0.5, Seed: 5})
	recs, _ := corpus.Records(docs, schema.TextFile, "re")
	beds := schema.MustNew("Beds", "", schema.Field{Name: "bedrooms", Type: schema.Int})
	var outs []*record.Record
	for _, r := range recs {
		d, err := r.Derive(beds, map[string]any{"bedrooms": int64(corpus.TruthOf(r).Numbers["bedrooms"])})
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, d)
	}
	acc, n := FieldAccuracy(outs, "bedrooms", "bedrooms")
	if n != 3 || acc != 1 {
		t.Errorf("numeric accuracy = %v over %d", acc, n)
	}
}

func TestExtractionQualityEmptyOutputs(t *testing.T) {
	recs := biomedRecords(t)
	m := ExtractionQuality(recs, nil, corpus.DatasetMentionKind)
	if m.TP != 0 || m.FN != 6 || m.Recall != 0 {
		t.Errorf("empty outputs = %v", m)
	}
}

// scanDomain saves n documents of the named domain as an NDJSON corpus
// and returns the records a scan builds from it, whose truths are packed,
// and DocRecord's records of the same generated documents.
func scanDomain(t *testing.T, name string, n int) (scanned, inMemory []*record.Record) {
	t.Helper()
	d, _ := corpus.DomainByName(name)
	path := t.TempDir() + "/" + name + ".ndjson"
	if _, err := corpus.SaveNDJSON(path, d.New(n, -1, 9), 9, nil); err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.Collect(d.New(n, -1, 9))
	if err != nil {
		t.Fatal(err)
	}
	if inMemory, err = corpus.Records(docs, schema.TextFile, name); err != nil {
		t.Fatal(err)
	}
	r, err := corpus.OpenNDJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for range docs {
		rec, err := r.NextRecord(schema.TextFile, name)
		if err != nil {
			t.Fatal(err)
		}
		scanned = append(scanned, rec)
	}
	return scanned, inMemory
}

// TestExtractionQualityScannedEqualsInMemory: one-to-many extraction
// over records scanned from an NDJSON corpus, whose truths are packed,
// scores exactly as over the same documents in memory, for a strong and
// a weak model, in the biomedical and legal domains; so does
// FieldAccuracy on a field of the truth.
func TestExtractionQualityScannedEqualsInMemory(t *testing.T) {
	clauses := schema.MustNew("Clause", "Contract clauses.",
		schema.Field{Name: "name", Type: schema.String, Desc: "clause name"},
		schema.Field{Name: "text", Type: schema.String, Desc: "clause text"},
	)
	for _, tc := range []struct {
		domain, kind string
		target       *schema.Schema
	}{
		{corpus.DomainBiomed, corpus.DatasetMentionKind, clinical},
		{corpus.DomainLegal, corpus.ClauseMentionKind, clauses},
	} {
		scanned, inMemory := scanDomain(t, tc.domain, 24)
		for _, model := range []string{"atlas-large", "pigeon-7b"} {
			score := func(recs []*record.Record) PRF {
				conv := &ops.LLMConvertExec{
					Convert: &ops.Convert{Target: tc.target, Desc: tc.target.Doc(), Card: ops.OneToMany},
					Model:   model, Bonded: true,
				}
				out, err := conv.Execute(newCtx(t), recs)
				if err != nil {
					t.Fatal(err)
				}
				return ExtractionQuality(recs, out, tc.kind)
			}
			got, want := score(scanned), score(inMemory)
			if got != want || want.TP == 0 {
				t.Errorf("%s, %s: scanned records score %v, in-memory ones %v", tc.domain, model, got, want)
			}
		}
	}
	scanned, inMemory := scanDomain(t, corpus.DomainLegal, 12)
	derive := func(recs []*record.Record) []*record.Record {
		parties := schema.MustNew("Parties", "", schema.Field{Name: "party_a", Type: schema.String})
		var out []*record.Record
		for i, r := range recs {
			v, _ := corpus.RecordTruth(r).View().Fields().Get("party_a")
			if i%3 == 0 {
				v = "Wrong Corp"
			}
			d, err := r.Derive(parties, map[string]any{"party_a": v})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, d)
		}
		return out
	}
	gotAcc, gotN := FieldAccuracy(derive(scanned), "party_a", "party_a")
	wantAcc, wantN := FieldAccuracy(derive(inMemory), "party_a", "party_a")
	if gotAcc != wantAcc || gotN != wantN || wantN != 12 {
		t.Errorf("FieldAccuracy: scanned %v over %d, in memory %v over %d", gotAcc, gotN, wantAcc, wantN)
	}
}
