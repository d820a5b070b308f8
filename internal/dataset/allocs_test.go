package dataset

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/llm"
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

// TestRangeSourceAllocs bounds what registering a range source
// allocates: its reader and its 16 sample documents, read as records
// whose truths stay packed. Building the sample truths' maps, as a Doc
// has them, cost about 100 more. The sample's AvgTokens is the mean
// token count of the documents' texts.
func TestRangeSourceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	path := writeSupportCorpus(t, 64)
	var src *NDJSONSource
	perRun := testing.AllocsPerRun(10, func() {
		var err error
		if src, err = NewNDJSONRangeSource("tickets", path, 0, 32); err != nil {
			t.Fatal(err)
		}
	})
	if perRun > 150 {
		t.Errorf("NewNDJSONRangeSource: %.0f allocs, want <= 150", perRun)
	} else {
		t.Logf("NewNDJSONRangeSource: %.0f allocs", perRun)
	}

	r, err := corpus.OpenNDJSONRange(path, 0, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tokens := 0
	for range statsSampleDocs {
		d, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		tokens += llm.CountTokens(d.Text)
	}
	if want := float64(tokens) / statsSampleDocs; src.stats.AvgTokens != want {
		t.Errorf("AvgTokens = %v, want %v", src.stats.AvgTokens, want)
	}
}
