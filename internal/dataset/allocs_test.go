package dataset

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/record"
)

// TestScanAllocsPerDoc bounds what a scan allocates per document: the
// record (its slots, two boxed strings and itself), one string for its
// filename and text, and its truth packed into another string, with the
// file's open amortized over 1,000 documents. A truth decoded into maps
// costs about nine more.
func TestScanAllocsPerDoc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const docs = 1000
	src, err := NewNDJSONSource("tickets", writeSupportCorpus(t, docs))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	perRun := testing.AllocsPerRun(5, func() {
		if err := src.IterateRecords(func(*record.Record) error {
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if n != 6*docs {
		t.Fatalf("iterated %d records, want %d", n, 6*docs)
	}
	if got := perRun / docs; got > 8 {
		t.Errorf("IterateRecords: %.2f allocs per doc, want <= 8", got)
	} else {
		t.Logf("IterateRecords: %.2f allocs per doc", got)
	}
}

// TestSidecarAllocsPerDoc bounds what decoding a folder's truth sidecar
// allocates per document: one string for the filename, the packed truth
// string and the Truth, with the entry slices amortized over 40
// contracts. A truth decoded into maps costs about 17 more.
func TestSidecarAllocsPerDoc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const docs = 40
	data := sidecarBytes(t, corpus.DomainLegal, docs, 7)
	perRun := testing.AllocsPerRun(20, func() {
		if _, err := decodeSidecar(data); err != nil {
			t.Fatal(err)
		}
	})
	if got := perRun / docs; got > 6 {
		t.Errorf("decodeSidecar: %.2f allocs per doc, want <= 6", got)
	} else {
		t.Logf("decodeSidecar: %.2f allocs per doc", got)
	}
}
