package llm_test

import (
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/metrics"
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

// folderRecords materializes n documents of the named domain as a folder
// with a truth sidecar and returns the folder's records, whose truths are
// packed and read back through TruthOf as generated, beside the same
// records with each truth swapped for its TruthOf maps.
func folderRecords(t testing.TB, name string, n int) (folder, withMaps []*record.Record) {
	t.Helper()
	d, ok := corpus.DomainByName(name)
	if !ok {
		t.Fatalf("unknown domain %q", name)
	}
	docs, err := corpus.Collect(d.New(n, -1, 5))
	if err != nil {
		t.Fatal(err)
	}
	src, err := dataset.MaterializeCorpus(name, t.TempDir(), docs)
	if err != nil {
		t.Fatal(err)
	}
	if folder, err = src.Records(); err != nil {
		t.Fatal(err)
	}
	generated := map[string]*corpus.Truth{}
	for _, doc := range docs {
		generated[doc.Filename] = doc.Truth
	}
	for _, r := range folder {
		name := r.GetString("filename")
		if _, packed := corpus.RecordTruth(r).Packed(); !packed {
			t.Fatalf("%s: the folder record's truth is not packed", name)
		}
		maps := corpus.TruthOf(r)
		if !reflect.DeepEqual(maps, generated[name]) {
			t.Fatalf("%s: the folder record's truth reads back as\n%+v\nit was generated as\n%+v", name, maps, generated[name])
		}
		m := r.Clone()
		m.SetTruth(maps)
		withMaps = append(withMaps, m)
	}
	return folder, withMaps
}

// TestOracleParityScanned: in every built-in domain, each filter
// decision, confidence and extraction the simulated models give for a
// record whose truth is packed is the one they give for the same record
// with maps, and the metrics score both alike. Records scanned from
// NDJSON are paired with DocRecord's records of the same generated
// documents, and a folder's records with themselves, their truths swapped
// for TruthOf's maps.
func TestOracleParityScanned(t *testing.T) {
	svc := llm.NewService()
	for _, name := range []string{corpus.DomainSupport, corpus.DomainFinance, corpus.DomainLegal, corpus.DomainRealEstate, corpus.DomainBiomed} {
		t.Run(name, func(t *testing.T) {
			scanned, inMemory := scannedRecords(t, name, 12)
			checkOracleParity(t, svc, scanned, inMemory)
			folder, withMaps := folderRecords(t, name, 12)
			checkOracleParity(t, svc, folder, withMaps)
		})
	}
}

// checkOracleParity checks that packed[i] and maps[i], the same record
// with its truth in either form, get the same answers from the simulated
// models, and that FilterQualityByTruth and ExtractionQuality score the
// answers alike over either set.
func checkOracleParity(t *testing.T, svc *llm.Service, packed, maps []*record.Record) {
	t.Helper()
	preds, fields := oracleQuestions(maps)
	var strs []schema.Field
	for _, f := range fields {
		if f.Type == schema.String {
			strs = append(strs, f)
		}
	}
	extracted := schema.MustNew("Extracted", "", strs...)
	kept := map[string][2][]*record.Record{}
	var outs [2][]*record.Record
	for i := range packed {
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
			var resps [2]*llm.Response
			for form, r := range [2]*record.Record{packed[i], maps[i]} {
				req.Record = r
				resp, err := svc.Complete(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Latency = 0
				resps[form] = resp
				// Score atlas-large's filters and many-entity extractions.
				switch {
				case req.Model != "atlas-large":
				case req.Task == llm.TaskFilter && resp.Decision:
					k := kept[req.Predicate]
					k[form] = append(k[form], r)
					kept[req.Predicate] = k
				case req.Task == llm.TaskExtract && req.OneToMany:
					for _, x := range resp.Extractions {
						vals := map[string]any{}
						for k, v := range x {
							if extracted.Has(k) {
								vals[k] = v
							}
						}
						out, err := r.Derive(extracted, vals)
						if err != nil {
							t.Fatal(err)
						}
						outs[form] = append(outs[form], out)
					}
				}
			}
			if !reflect.DeepEqual(resps[0], resps[1]) {
				t.Fatalf("%s, %s %q %v: the record with a packed truth answers\n%+v\nthe one with maps\n%+v",
					maps[i].GetString("filename"), req.Model, req.Predicate, req.Fields, resps[0], resps[1])
			}
		}
	}
	for _, p := range preds {
		got := metrics.FilterQualityByTruth(packed, kept[p][0], p)
		if want := metrics.FilterQualityByTruth(maps, kept[p][1], p); got != want {
			t.Fatalf("FilterQualityByTruth %q: packed %+v, maps %+v", p, got, want)
		}
	}
	kinds := map[string]bool{}
	for _, r := range maps {
		for _, m := range corpus.TruthOf(r).Mentions {
			kinds[m.Kind] = true
		}
	}
	for kind := range kinds {
		got := metrics.ExtractionQuality(packed, outs[0], kind)
		if want := metrics.ExtractionQuality(maps, outs[1], kind); got != want {
			t.Fatalf("ExtractionQuality %q: packed %+v, maps %+v", kind, got, want)
		}
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
