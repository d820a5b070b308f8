package corpus

import (
	"testing"

	"repro/internal/schema"
)

// TestDocRecordAllocs bounds what wrapping one document into a record
// costs: its slots, its two boxed strings and the record itself. A map
// on the way in, or a truth map, takes more.
func TestDocRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	d := GenerateSupport(SupportConfig{NumTickets: 1, UrgentRate: 0.3, Seed: 7})[0]
	got := testing.AllocsPerRun(200, func() {
		if _, err := DocRecord(d, schema.TextFile, "tickets"); err != nil {
			t.Fatal(err)
		}
	})
	if got > 4 {
		t.Errorf("DocRecord: %.0f allocs, want <= 4", got)
	} else {
		t.Logf("DocRecord: %.0f allocs", got)
	}
}

func TestDocRecord(t *testing.T) {
	d := GenerateSupport(SupportConfig{NumTickets: 1, UrgentRate: 0.3, Seed: 7})[0]
	r, err := DocRecord(d, schema.TextFile, "tickets")
	if err != nil {
		t.Fatal(err)
	}
	if r.GetString("filename") != d.Filename || r.GetString("contents") != d.Text {
		t.Errorf("record %v does not hold document %s", r, d.Filename)
	}
	if r.Source() != "tickets" || TruthOf(r) != d.Truth {
		t.Errorf("source %q, truth %p: want tickets, %p", r.Source(), TruthOf(r), d.Truth)
	}
	noText := schema.MustNew("Named", "", schema.Field{Name: "filename", Type: schema.String})
	if _, err := DocRecord(d, noText, "tickets"); err == nil {
		t.Error("a schema without a contents field was accepted")
	}
	if _, err := DocRecord(d, nil, "tickets"); err == nil {
		t.Error("a nil schema was accepted")
	}
}

// BenchmarkDocRecord prices wrapping one support ticket into a record,
// the record build every scanned document takes.
func BenchmarkDocRecord(b *testing.B) {
	docs := GenerateSupport(SupportConfig{NumTickets: 64, UrgentRate: 0.3, Seed: 7})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DocRecord(docs[i%len(docs)], schema.TextFile, "tickets"); err != nil {
			b.Fatal(err)
		}
	}
}
