package llm

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/schema"
)

// Oracle-consistency tests for the scale domains (support, finance):
// every simulated answer must be derivable from the generated document's
// Truth — gold filter decisions follow the labels, and extraction returns
// the annotated values.

const (
	supportPredicate = "The ticket is urgent and needs immediate attention"
	financePredicate = "The filing reports a profitable fiscal year"
)

func TestGoldFilterDecisionSupport(t *testing.T) {
	for _, d := range corpus.GenerateSupport(corpus.DefaultSupport()) {
		want := d.Truth.Labels[corpus.UrgentLabel]
		if got := GoldFilterDecision(d.Truth, supportPredicate); got != want {
			t.Fatalf("%s: gold decision %t, label %t", d.Filename, got, want)
		}
	}
}

func TestGoldFilterDecisionFinance(t *testing.T) {
	for _, d := range corpus.GenerateFinance(corpus.DefaultFinance()) {
		want := d.Truth.Labels[corpus.ProfitableLabel]
		if got := GoldFilterDecision(d.Truth, financePredicate); got != want {
			t.Fatalf("%s: gold decision %t, label %t", d.Filename, got, want)
		}
	}
}

func TestGoldRoutingDecisionSupport(t *testing.T) {
	// The routing workload filters by category topic; a billing ticket
	// must answer yes to a billing predicate and no to a mobile one.
	for _, d := range corpus.GenerateSupport(corpus.DefaultSupport()) {
		cat := d.Truth.Fields["category"]
		if !GoldFilterDecision(d.Truth, "The ticket is about "+cat) {
			t.Fatalf("%s: category %s not routable by topic", d.Filename, cat)
		}
	}
}

func TestSupportExtractionFromTruth(t *testing.T) {
	docs := corpus.GenerateSupport(corpus.SupportConfig{NumTickets: 30, UrgentRate: 0.3, Seed: 17})
	recs, err := corpus.Records(docs, schema.TextFile, "tickets")
	if err != nil {
		t.Fatal(err)
	}
	fields := []schema.Field{
		{Name: "ticket_id", Type: schema.String},
		{Name: "product", Type: schema.String},
		{Name: "category", Type: schema.String},
		{Name: "priority", Type: schema.String},
	}
	svc := NewService()
	for i, r := range recs {
		resp, err := svc.Complete(Request{Model: "atlas-large", Task: TaskExtract,
			Record: r, Fields: fields})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Extractions) != 1 {
			t.Fatalf("ticket %d: %d extractions", i, len(resp.Extractions))
		}
		truth := docs[i].Truth
		ex := resp.Extractions[0]
		for _, f := range fields {
			// atlas-large is near-perfect but still noisy; a garbled
			// value must be a recognizable corruption of the truth, and
			// clean values must equal it.
			if ex[f.Name] != truth.Fields[f.Name] && ex[f.Name] == "" {
				t.Errorf("ticket %d: field %s empty, truth %q", i, f.Name, truth.Fields[f.Name])
			}
		}
	}
}

func TestFinanceNumericExtractionFromTruth(t *testing.T) {
	docs := corpus.GenerateFinance(corpus.FinanceConfig{NumFilings: 30, ProfitableRate: 0.5, Seed: 23})
	recs, err := corpus.Records(docs, schema.TextFile, "filings")
	if err != nil {
		t.Fatal(err)
	}
	fields := []schema.Field{
		{Name: "company", Type: schema.String},
		{Name: "fiscal_year", Type: schema.Int},
		{Name: "revenue_musd", Type: schema.Float},
		{Name: "net_income_musd", Type: schema.Float},
	}
	svc := NewService()
	exact := 0
	for i, r := range recs {
		resp, err := svc.Complete(Request{Model: "atlas-large", Task: TaskExtract,
			Record: r, Fields: fields})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Extractions) != 1 {
			t.Fatalf("filing %d: %d extractions", i, len(resp.Extractions))
		}
		truth := docs[i].Truth
		ex := resp.Extractions[0]
		wantYear := fmt.Sprintf("%d", int64(truth.Numbers["fiscal_year"]))
		wantRev := fmt.Sprintf("%d", int64(truth.Numbers["revenue_musd"]))
		if ex["company"] == truth.Fields["company"] &&
			ex["fiscal_year"] == wantYear && ex["revenue_musd"] == wantRev {
			exact++
		}
	}
	// Model noise may garble a couple of fields; the bulk must be exact
	// reads of the Truth numbers.
	if exact < 25 {
		t.Fatalf("only %d/30 filings extracted exactly from truth", exact)
	}
}

// TestGoldFilterDecisionConjoinsLabels: a predicate that names two labels
// is answered by both of them, every time, rather than by whichever label
// the map iteration meets first; topics decide only when no label matches.
func TestGoldFilterDecisionConjoinsLabels(t *testing.T) {
	const pred = "Colorectal cancer studies that use public datasets"
	for _, tc := range []struct{ colorectal, public, want bool }{
		{true, true, true},
		{true, false, false},
		{false, true, false},
		{false, false, false},
	} {
		truth := &corpus.Truth{
			Topics: []string{"colorectal cancer"},
			Labels: map[string]bool{"colorectal": tc.colorectal, "public_datasets": tc.public},
		}
		for i := 0; i < 200; i++ {
			if got := GoldFilterDecision(truth, pred); got != tc.want {
				t.Fatalf("labels colorectal=%t public_datasets=%t: call %d answered %t, want %t",
					tc.colorectal, tc.public, i, got, tc.want)
			}
		}
	}
	truth := &corpus.Truth{Topics: []string{"colorectal cancer"}, Labels: map[string]bool{"indemnification": false}}
	if !GoldFilterDecision(truth, "Papers about colorectal cancer") {
		t.Error("with no matching label the topic should decide")
	}
}
