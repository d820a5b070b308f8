package dataset

import (
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/record"
	"repro/internal/schema"
)

// writeSupportCorpus spills a small support corpus and returns its path.
func writeSupportCorpus(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "support.ndjson")
	g := corpus.NewSupportGenerator(corpus.SupportConfig{NumTickets: n, UrgentRate: 0.3, Seed: 13})
	if _, err := corpus.SaveNDJSON(path, g, 13, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestNDJSONSourceStatsAndSchema(t *testing.T) {
	src, err := NewNDJSONSource("tickets", writeSupportCorpus(t, 30))
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "tickets" {
		t.Errorf("name = %q", src.Name())
	}
	if !schema.Equal(src.Schema(), schema.TextFile) {
		t.Errorf("schema = %s, want TextFile for .txt filenames", src.Schema().Name())
	}
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRecords != 30 {
		t.Errorf("NumRecords = %d, want 30", st.NumRecords)
	}
	if st.AvgTokens <= 0 {
		t.Errorf("AvgTokens = %v, want > 0", st.AvgTokens)
	}
}

func TestNDJSONSourcePDFSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "papers.ndjson")
	g := corpus.NewBiomedGenerator(corpus.BiomedConfig{NumPapers: 3, NumRelevant: 1, NumDatasets: 2, Seed: 7})
	if _, err := corpus.SaveNDJSON(path, g, 7, nil); err != nil {
		t.Fatal(err)
	}
	src, err := NewNDJSONSource("papers", path)
	if err != nil {
		t.Fatal(err)
	}
	if !schema.Equal(src.Schema(), schema.PDFFile) {
		t.Errorf("schema = %s, want PDFFile for .pdf filenames", src.Schema().Name())
	}
}

func TestNDJSONSourceRecordsMatchDocs(t *testing.T) {
	path := writeSupportCorpus(t, 20)
	src, err := NewNDJSONSource("tickets", path)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(t, src)
	want := corpus.GenerateSupport(corpus.SupportConfig{NumTickets: 20, UrgentRate: 0.3, Seed: 13})
	if len(recs) != len(want) {
		t.Fatalf("records = %d, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Source() != "tickets" {
			t.Fatalf("record %d source = %q", i, r.Source())
		}
		if r.GetString("filename") != want[i].Filename || r.GetString("contents") != want[i].Text {
			t.Fatalf("record %d content differs from generated doc", i)
		}
		truth := corpus.TruthOf(r)
		if truth == nil {
			t.Fatalf("record %d lost ground truth across the disk round trip", i)
		}
		if truth.Fields["ticket_id"] != want[i].Truth.Fields["ticket_id"] {
			t.Fatalf("record %d truth differs", i)
		}
	}
}

func TestNDJSONSourceIterateEarlyStop(t *testing.T) {
	src, err := NewNDJSONSource("tickets", writeSupportCorpus(t, 50))
	if err != nil {
		t.Fatal(err)
	}
	var got []*record.Record
	err = src.Iterate(0, 50, func(r *record.Record) error {
		got = append(got, r)
		if len(got) == 5 {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ErrStop must not surface: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("iterated %d records, want 5", len(got))
	}
}

func TestNDJSONSourceEmptyCorpusRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.ndjson")
	g := corpus.NewSupportGenerator(corpus.SupportConfig{})
	if _, err := corpus.SaveNDJSON(path, g, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewNDJSONSource("empty", path); err == nil {
		t.Fatal("empty corpus accepted")
	}
}
