package main

import (
	"bytes"
	"strconv"

	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/serve"
	"repro/internal/workloads"
	"repro/pz"
)

// domain is one small seeded corpus with its triage predicate, an
// extraction to pair with it, and the predicate's gold answers.
type domain struct {
	name      string
	schema    *pz.Schema
	docs      []*corpus.Doc
	predicate string
	// convert is the extraction op of the domain's filter+convert spec.
	convert serve.OpSpec
	// keep maps each filename to the predicate's gold answer.
	keep      map[string]bool
	positives int
}

// newDomains generates the five corpus domains from seed, each scaled
// from n docs (biomed from n/2, as papers are long).
func newDomains(seed int64, n int) []*domain {
	// Fixed schemas always derive.
	route, _ := workloads.SupportRouteSchema()
	figures, _ := workloads.FinanceFiguresSchema()
	ds := []*domain{
		{
			name: "biomed", schema: pz.PDFFile, predicate: "The papers are about colorectal cancer",
			docs: corpus.GenerateBiomed(corpus.BiomedConfig{
				NumPapers: max(n/2, 6), NumRelevant: max(n/5, 3), NumDatasets: max(n/4, 3), Seed: seed}),
			convert: serve.OpSpec{Op: "convert", Schema: "ClinicalData", Doc: "Clinical datasets mentioned in a paper.",
				Fields: []string{"name", "description", "url"}, Cardinality: "one_to_many"},
		},
		{
			name: "legal", schema: pz.TextFile, predicate: "The contract contains an indemnification clause",
			docs: corpus.GenerateLegal(corpus.LegalConfig{NumContracts: n, IndemnificationRate: 0.4, Seed: seed}),
			convert: serve.OpSpec{Op: "convert", Schema: "ContractParties", Doc: "Parties and effective date of a contract.",
				Fields: []string{"party_a", "party_b", "effective_date"}},
		},
		{
			name: "realestate", schema: pz.TextFile, predicate: "The listing has a modern, recently renovated interior",
			docs: corpus.GenerateRealEstate(corpus.RealEstateConfig{NumListings: n, ModernRate: 0.35, Seed: seed}),
			convert: serve.OpSpec{Op: "convert", Schema: "Listing", Doc: "A real estate listing.",
				Fields: []string{"neighborhood", "price:float", "bedrooms:int"}},
		},
		{
			name: "support", schema: pz.TextFile, predicate: workloads.SupportPredicate,
			docs:    corpus.GenerateSupport(corpus.SupportConfig{NumTickets: n, UrgentRate: 0.3, Seed: seed}),
			convert: serve.OpSpec{Op: "convert", Schema: route.Name(), Doc: route.Doc(), Fields: route.FieldNames()},
		},
		{
			name: "finance", schema: pz.TextFile, predicate: workloads.FinancePredicate,
			docs: corpus.GenerateFinance(corpus.FinanceConfig{NumFilings: n, ProfitableRate: 0.6, Seed: seed}),
			convert: serve.OpSpec{Op: "convert", Schema: figures.Name(), Doc: figures.Doc(), Fields: []string{
				"company", "fiscal_year:int", "revenue_musd:float", "net_income_musd:float", "eps:float"}},
		},
	}
	for _, d := range ds {
		d.keep = make(map[string]bool, len(d.docs))
		for _, doc := range d.docs {
			k := llm.GoldFilterDecision(doc.Truth, d.predicate)
			d.keep[doc.Filename] = k
			if k {
				d.positives++
			}
		}
	}
	return ds
}

// filenameF1 scores a filter's JSON output (RecordsJSON of file records)
// against the domain's gold answers by the filenames it kept.
func (d *domain) filenameF1(records []byte) float64 {
	key := []byte(`"filename":"`)
	tp, fp := 0, 0
	for {
		i := bytes.Index(records, key)
		if i < 0 {
			break
		}
		records = records[i+len(key):]
		j := bytes.IndexByte(records, '"')
		if j < 0 {
			break
		}
		if d.keep[string(records[:j])] {
			tp++
		} else {
			fp++
		}
		records = records[j:]
	}
	return f1Score(tp, fp, d.positives-tp)
}

// jsonValue returns the raw value after the last occurrence of "key": in
// a compact JSON document, up to the next ',' or '}'. It serves flat
// scalar fields whose key cannot occur inside a string value.
func jsonValue(doc []byte, key string) []byte {
	k := []byte(`"` + key + `":`)
	i := bytes.LastIndex(doc, k)
	if i < 0 {
		return nil
	}
	v := doc[i+len(k):]
	if len(v) > 0 && v[0] == '"' {
		if j := bytes.IndexByte(v[1:], '"'); j >= 0 {
			return v[1 : j+1]
		}
		return nil
	}
	if j := bytes.IndexAny(v, ",}"); j >= 0 {
		return v[:j]
	}
	return v
}

func jsonFloat(doc []byte, key string) float64 {
	f, _ := strconv.ParseFloat(string(jsonValue(doc, key)), 64)
	return f
}
