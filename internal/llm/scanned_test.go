package llm_test

import (
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/record"
	"repro/internal/schema"
)

// scannedRecords saves n documents of the named domain as an NDJSON
// corpus and returns the records a scan builds from it, whose truths are
// packed, beside DocRecord's records of the same generated documents,
// whose truths hold maps.
func scannedRecords(t testing.TB, name string, n int) (scanned, inMemory []*record.Record) {
	t.Helper()
	d, ok := corpus.DomainByName(name)
	if !ok {
		t.Fatalf("unknown domain %q", name)
	}
	path := filepath.Join(t.TempDir(), name+".ndjson")
	if _, err := corpus.SaveNDJSON(path, d.New(n, -1, 5), 5, nil); err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.Collect(d.New(n, -1, 5))
	if err != nil {
		t.Fatal(err)
	}
	r, err := corpus.OpenNDJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, doc := range docs {
		s, err := r.NextRecord(schema.TextFile, name)
		if err != nil {
			t.Fatal(err)
		}
		if _, packed := corpus.RecordTruth(s).Packed(); !packed {
			t.Fatalf("%s: the scanned record's truth is not packed", doc.Filename)
		}
		m, err := corpus.DocRecord(doc, schema.TextFile, name)
		if err != nil {
			t.Fatal(err)
		}
		scanned, inMemory = append(scanned, s), append(inMemory, m)
	}
	return scanned, inMemory
}

// oracleQuestions returns filter predicates and extraction fields that
// reach every part of the truths of recs: each label, alone and paired,
// each topic, and each field, number and mention field name, plus names
// that only match fuzzily or not at all.
func oracleQuestions(recs []*record.Record) (preds []string, fields []schema.Field) {
	preds = []string{"The document mentions nothing of note"}
	names := map[string]bool{"name": true, "url": true, "price": true, "musd": true}
	for _, r := range recs {
		t := corpus.TruthOf(r)
		var labels []string
		for l := range t.Labels {
			labels = append(labels, l)
		}
		slices.Sort(labels)
		for i, l := range labels {
			preds = append(preds, "The document is "+l)
			if i > 0 {
				preds = append(preds, labels[i-1]+" and "+l)
			}
		}
		for _, topic := range t.Topics {
			preds = append(preds, "About "+topic)
		}
		for k := range t.Fields {
			names[k] = true
		}
		for k := range t.Numbers {
			names[k] = true
		}
		for _, m := range t.Mentions {
			for k := range m.Fields {
				names[k] = true
			}
		}
	}
	slices.Sort(preds)
	preds = slices.Compact(preds)
	for k := range names {
		fields = append(fields, schema.Field{Name: k, Type: schema.String}, schema.Field{Name: k + "_n", Type: schema.Int})
	}
	slices.SortFunc(fields, func(a, b schema.Field) int { return cmpString(a.Name, b.Name) })
	return preds, fields
}

func cmpString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// TestOracleParityScanned: in every built-in domain, each filter
// decision, confidence and extraction the simulated models give for a
// record scanned from NDJSON, whose truth is packed, is the one they give
// for DocRecord's record of the same generated document.
func TestOracleParityScanned(t *testing.T) {
	svc := llm.NewService()
	for _, name := range []string{corpus.DomainSupport, corpus.DomainFinance, corpus.DomainLegal, corpus.DomainRealEstate, corpus.DomainBiomed} {
		t.Run(name, func(t *testing.T) {
			scanned, inMemory := scannedRecords(t, name, 12)
			preds, fields := oracleQuestions(inMemory)
			for i := range scanned {
				var reqs []llm.Request
				for _, model := range []string{"atlas-large", "pigeon-7b"} {
					for _, p := range preds {
						reqs = append(reqs, llm.Request{Model: model, Task: llm.TaskFilter, Predicate: p})
					}
					for _, many := range []bool{false, true} {
						reqs = append(reqs, llm.Request{Model: model, Task: llm.TaskExtract, Fields: fields, OneToMany: many})
						for _, f := range fields {
							reqs = append(reqs, llm.Request{Model: model, Task: llm.TaskExtract, Fields: []schema.Field{f}, OneToMany: many})
						}
					}
				}
				for _, req := range reqs {
					req.Record = scanned[i]
					got, err := svc.Complete(req)
					if err != nil {
						t.Fatal(err)
					}
					req.Record = inMemory[i]
					want, err := svc.Complete(req)
					if err != nil {
						t.Fatal(err)
					}
					got.Latency, want.Latency = 0, 0
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, %s %q %v: scanned record answers\n%+v\nthe in-memory one\n%+v",
							inMemory[i].GetString("filename"), req.Model, req.Predicate, req.Fields, got, want)
					}
				}
			}
		})
	}
}

// TestMatchFieldSmallestNumberKey: a requested field that matches two
// number names takes the smaller name's value on every call, as a string
// field does, rather than whichever the map yields first.
func TestMatchFieldSmallestNumberKey(t *testing.T) {
	r := record.MustNew(schema.TextFile, map[string]any{"filename": "f.txt", "contents": "figures"})
	r.SetTruth(&corpus.Truth{Numbers: map[string]float64{"net_income_musd": 1, "revenue_musd": 2}})
	svc := llm.NewService()
	req := llm.Request{Model: "atlas-large", Task: llm.TaskExtract, Record: r,
		Fields: []schema.Field{{Name: "musd", Type: schema.Float}}, QualityBoost: 1}
	for call := 0; call < 64; call++ {
		resp, err := svc.Complete(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Extractions) != 1 || resp.Extractions[0]["musd"] != "1" {
			t.Fatalf("call %d extracts %v, want musd 1 (net_income_musd)", call, resp.Extractions)
		}
	}
}
