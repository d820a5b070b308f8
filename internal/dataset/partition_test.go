package dataset

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/record"
)

// partitionedSource writes a support corpus (indexed by WriteNDJSON) and
// opens it as an NDJSONSource.
func partitionedSource(t *testing.T, n int) *NDJSONSource {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tickets.ndjson")
	g := corpus.NewSupportGenerator(corpus.SupportConfig{NumTickets: n, UrgentRate: 0.3, Seed: 11})
	if _, err := corpus.SaveNDJSON(path, g, 11, nil); err != nil {
		t.Fatal(err)
	}
	src, err := NewNDJSONSource("tickets", path)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// renderRecord serializes a record's content (fields and truth identity
// excluded from record IDs, which reflect allocation order).
func renderRecord(r *record.Record) string {
	var b strings.Builder
	for _, f := range r.Schema().FieldNames() {
		fmt.Fprintf(&b, "%s=%q;", f, r.GetString(f))
	}
	return b.String()
}

// layoutOf is the source's partition layout for a fan-out of at most max,
// as the scan computes it.
func layoutOf(t *testing.T, src Source, max int) []int {
	t.Helper()
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return corpus.Layout(st.NumRecords, st.Stride, max)
}

// TestIteratePartitionEquivalence: for randomized fan-outs, concatenating
// Iterate over the ranges of the layout yields exactly the records
// (content and order) of one whole-corpus Iterate — the dataset-level
// half of the partition≡sequential property — and the layout is the
// manifest's partition split.
func TestIteratePartitionEquivalence(t *testing.T) {
	const n = 87
	src := partitionedSource(t, n)
	var want []string
	if err := src.Iterate(0, n, func(r *record.Record) error {
		want = append(want, renderRecord(r))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) != n {
		t.Fatalf("sequential iteration yielded %d records, want %d", len(want), n)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		max := 2 + rng.Intn(n)
		layout := layoutOf(t, src, max)
		if len(layout) < 2 {
			t.Fatalf("layout(%d) = %v, want a real split", max, layout)
		}
		ranges := src.PartitionRanges(max)
		if len(ranges) != len(layout) {
			t.Fatalf("layout(%d) = %v, manifest partitions %v", max, layout, ranges)
		}
		var got []string
		lo := 0
		for part, docs := range layout {
			if ranges[part].Docs != docs {
				t.Fatalf("partition %d: layout says %d records, manifest %d", part, docs, ranges[part].Docs)
			}
			count := 0
			if err := src.Iterate(lo, lo+docs, func(r *record.Record) error {
				got = append(got, renderRecord(r))
				count++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if count != docs {
				t.Fatalf("partition %d yielded %d records, layout says %d", part, count, docs)
			}
			lo += docs
		}
		if len(got) != len(want) {
			t.Fatalf("%d-way partitioned iteration yielded %d records, want %d", len(layout), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d differs under %d-way partitioning:\nsequential:  %s\npartitioned: %s",
					i, len(layout), want[i], got[i])
			}
		}
	}
}

// TestIteratePartitionErrStop: the early-stop contract holds on a range
// that starts mid-corpus too.
func TestIteratePartitionErrStop(t *testing.T) {
	src := partitionedSource(t, 40)
	layout := layoutOf(t, src, 4)
	if len(layout) != 4 {
		t.Fatalf("layout = %v, want 4 partitions", layout)
	}
	seen := 0
	err := src.Iterate(layout[0], layout[0]+layout[1], func(*record.Record) error {
		seen++
		if seen == 3 {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ErrStop leaked: %v", err)
	}
	if seen != 3 {
		t.Fatalf("saw %d records after ErrStop at 3", seen)
	}
}

// TestIteratePartitionBounds: a range off a checkpoint, past the end or
// inverted errors instead of silently reading the wrong bytes, and a
// range that is not the whole corpus reads exactly its records.
func TestIteratePartitionBounds(t *testing.T) {
	src := partitionedSource(t, 24)
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stride != 1 {
		t.Fatalf("a 24-document corpus has stride %d, want 1", st.Stride)
	}
	for _, r := range [][2]int{{-1, 4}, {0, 25}, {20, 25}, {25, 25}, {6, 5}} {
		if err := src.Iterate(r[0], r[1], func(*record.Record) error { return nil }); err == nil {
			t.Errorf("Iterate(%d, %d) accepted a range outside 24 records", r[0], r[1])
		}
	}
	// Past 4,096 documents the index keeps every second one.
	bigger := partitionedSource(t, 5000)
	if st, _ := bigger.Stats(); st.Stride != 2 {
		t.Fatalf("a 5,000-document corpus has stride %d, want 2", st.Stride)
	}
	if err := bigger.Iterate(3, 9, func(*record.Record) error { return nil }); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("Iterate(3, 9) at stride 2: %v, want an off-checkpoint error", err)
	}
	var names []string
	if err := bigger.Iterate(6, 9, func(r *record.Record) error {
		names = append(names, r.GetString("filename"))
		return nil
	}); err != nil || len(names) != 3 {
		t.Fatalf("Iterate(6, 9) = %v, %v", names, err)
	}
	all := collect(t, bigger)
	for i, name := range names {
		if want := all[6+i].GetString("filename"); name != want {
			t.Errorf("record %d of Iterate(6, 9) is %s, want %s", i, name, want)
		}
	}
}

// TestPartitionLayoutUnavailable: a corpus without a usable manifest
// index is a single partition: its stride is its size, so the scan's
// layout is one range and a range starting anywhere else is rejected.
func TestPartitionLayoutUnavailable(t *testing.T) {
	src := partitionedSource(t, 30)
	m, err := corpus.ReadManifest(src.Path())
	if err != nil {
		t.Fatal(err)
	}
	m.Index = nil // as if the corpus had been written before the index format
	if err := corpus.WriteManifest(src.Path(), m); err != nil {
		t.Fatal(err)
	}
	for name, drop := range map[string]bool{"unindexed manifest": false, "no manifest": true} {
		if drop {
			if err := os.Remove(src.Path() + corpus.ManifestSuffix); err != nil {
				t.Fatal(err)
			}
		}
		unindexed, err := NewNDJSONSource("tickets", src.Path())
		if err != nil {
			t.Fatal(err)
		}
		if layout := layoutOf(t, unindexed, 8); len(layout) != 1 || layout[0] != 30 {
			t.Fatalf("%s: layout %v, want one partition of 30", name, layout)
		}
		if parts := unindexed.PartitionRanges(8); parts != nil {
			t.Fatalf("%s: partition ranges %v", name, parts)
		}
		if err := unindexed.Iterate(15, 30, func(*record.Record) error { return nil }); err == nil {
			t.Fatalf("%s: iterated a range off the only checkpoint", name)
		}
		if got := collect(t, unindexed); len(got) != 30 {
			t.Fatalf("%s: read %d records, want 30", name, len(got))
		}
	}
}
