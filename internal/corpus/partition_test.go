package corpus

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// saveDomainCorpus spills a small corpus of the named domain to disk and
// returns its path and manifest.
func saveDomainCorpus(t *testing.T, d Domain, n int, seed int64) (string, *Manifest) {
	t.Helper()
	path := filepath.Join(t.TempDir(), d.Name+".ndjson")
	m, err := SaveNDJSON(path, d.New(n, -1, seed), seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return path, m
}

// marshalDocs renders documents (text and truth included) to canonical
// JSON so slices can be compared byte for byte.
func marshalDocs(t *testing.T, docs []*Doc) string {
	t.Helper()
	data, err := json.Marshal(docs)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestPartitionReadsEquivalentToSequential is the partition property test:
// for every registered domain and randomized partition counts, the
// concatenation of the per-partition range reads must be byte-for-byte
// identical (documents and truth) to one full sequential scan. It extends
// the slice≡stream equivalence suite to the on-disk partitioned path.
func TestPartitionReadsEquivalentToSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	for _, d := range Domains() {
		t.Run(d.Name, func(t *testing.T) {
			n := d.DefaultDocs
			path, m := saveDomainCorpus(t, d, n, 9)
			if m.Index == nil {
				t.Fatalf("SaveNDJSON wrote no partition index for %d docs", n)
			}
			r, err := OpenNDJSON(path)
			if err != nil {
				t.Fatal(err)
			}
			seqDocs, err := Collect(r)
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(seqDocs) != n {
				t.Fatalf("sequential scan read %d docs, want %d", len(seqDocs), n)
			}
			want := marshalDocs(t, seqDocs)

			for trial := 0; trial < 8; trial++ {
				// Random fan-out, deliberately sometimes exceeding the
				// corpus size to exercise clamping.
				p := 1 + rng.Intn(n+3)
				parts := m.Partitions(p)
				if len(parts) == 0 || len(parts) > p {
					t.Fatalf("Partitions(%d) returned %d partitions", p, len(parts))
				}
				total := 0
				var got []*Doc
				for i, part := range parts {
					if part.Ordinal != i {
						t.Fatalf("partition %d has ordinal %d", i, part.Ordinal)
					}
					if part.Docs <= 0 {
						t.Fatalf("partition %d is empty (%d-way split of %d docs)", i, p, n)
					}
					total += part.Docs
					pr, err := OpenNDJSONRange(path, part.Offset, part.Docs)
					if err != nil {
						t.Fatal(err)
					}
					docs, err := Collect(pr)
					pr.Close()
					if err != nil {
						t.Fatal(err)
					}
					if len(docs) != part.Docs {
						t.Fatalf("partition %d read %d docs, want %d", i, len(docs), part.Docs)
					}
					got = append(got, docs...)
				}
				if total != n {
					t.Fatalf("partition doc counts sum to %d, want %d", total, n)
				}
				if concat := marshalDocs(t, got); concat != want {
					t.Fatalf("%d-way partitioned read differs from sequential scan", len(parts))
				}
			}
		})
	}
}

// TestIndexBuilderDecimation checks the adaptive stride: a document count
// beyond maxIndexEntries doubles the stride instead of growing the table,
// and every checkpoint still points at the right document offset.
func TestIndexBuilderDecimation(t *testing.T) {
	const docs = 3*maxIndexEntries + 5
	b := newIndexBuilder()
	for i := 0; i < docs; i++ {
		b.note(i, int64(i)*10) // synthetic: document i starts at byte 10i
	}
	ix := b.index(docs)
	if ix == nil {
		t.Fatal("no index built")
	}
	if ix.Stride != 4 {
		t.Fatalf("stride = %d, want 4 (two decimations past %d entries)", ix.Stride, maxIndexEntries)
	}
	if len(ix.Offsets) > maxIndexEntries {
		t.Fatalf("index has %d entries, cap is %d", len(ix.Offsets), maxIndexEntries)
	}
	for k, off := range ix.Offsets {
		if want := int64(k*ix.Stride) * 10; off != want {
			t.Fatalf("checkpoint %d at offset %d, want %d", k, off, want)
		}
	}
	if err := ix.check(docs, int64(docs)*10); err != nil {
		t.Fatalf("built index fails its own check: %v", err)
	}
}

// TestIndexNDJSONBackfill verifies `pzcorpus index`'s engine: stripping
// the index from a manifest and back-filling reproduces the exact index
// the writer produced, and corpora with no manifest at all get one.
func TestIndexNDJSONBackfill(t *testing.T) {
	d, _ := DomainByName(DomainSupport)
	path, written := saveDomainCorpus(t, d, 75, 3)

	// Simulate a pre-index manifest.
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	m.Index = nil
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	back, created, err := IndexNDJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("IndexNDJSON claims it created a manifest that existed")
	}
	if !reflect.DeepEqual(back.Index, written.Index) {
		t.Fatalf("back-filled index differs from writer's:\nwriter: %+v\nbackfill: %+v", written.Index, back.Index)
	}
	if back.Domain != written.Domain || back.SHA256 != written.SHA256 {
		t.Fatal("back-fill clobbered manifest provenance")
	}

	// No manifest at all: index creates one (domain unknown).
	if err := os.Remove(path + ManifestSuffix); err != nil {
		t.Fatal(err)
	}
	fresh, created, err := IndexNDJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("IndexNDJSON did not report creating a manifest")
	}
	if fresh.NumDocs != written.NumDocs || fresh.SHA256 != written.SHA256 {
		t.Fatalf("created manifest docs=%d sha=%s, want docs=%d sha=%s",
			fresh.NumDocs, fresh.SHA256, written.NumDocs, written.SHA256)
	}
	if !reflect.DeepEqual(fresh.Index, written.Index) {
		t.Fatal("created manifest's index differs from writer's")
	}
	rep, err := ValidateNDJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	// The created manifest has no domain, so only generic checks ran —
	// but the checksum, counts, and index must all line up.
	if !rep.OK() {
		t.Fatalf("re-indexed corpus fails validation: %v", rep.Errors)
	}
}

// TestIndexNDJSONStaleManifest: a corpus edited after its manifest was
// written must be rejected, not silently re-described.
func TestIndexNDJSONStaleManifest(t *testing.T) {
	d, _ := DomainByName(DomainFinance)
	path, _ := saveDomainCorpus(t, d, 20, 4)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"filename\":\"extra.txt\",\"text\":\"x\",\"truth\":{\"labels\":{\"a\":true}}}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := IndexNDJSON(path); err == nil {
		t.Fatal("IndexNDJSON accepted a corpus that changed under its manifest")
	}
}

// TestValidateNDJSONCatchesIndexCorruption: a manifest whose index points
// at the wrong offsets must fail validation.
func TestValidateNDJSONCatchesIndexCorruption(t *testing.T) {
	d, _ := DomainByName(DomainLegal)
	path, _ := saveDomainCorpus(t, d, 30, 6)
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Index == nil || len(m.Index.Offsets) < 3 {
		t.Fatalf("unexpected index shape: %+v", m.Index)
	}
	m.Index.Offsets[2]++ // one checkpoint now points mid-document
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateNDJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("validation passed a corrupted partition index")
	}
}

// TestValidateNDJSONNotesMissingIndex: pre-index manifests stay valid but
// the report points at the back-fill path.
func TestValidateNDJSONNotesMissingIndex(t *testing.T) {
	d, _ := DomainByName(DomainRealEstate)
	path, _ := saveDomainCorpus(t, d, 12, 2)
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	m.Index = nil
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateNDJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("index-less corpus failed validation: %v", rep.Errors)
	}
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "partition index") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no note about the missing partition index in %v", rep.Notes)
	}
}

// checkpointLayout is the per-partition document count of the checkpoint
// split, written independently of Layout as its reference: partition i
// runs from checkpoint i*C/p to checkpoint (i+1)*C/p of C, clamped to the
// corpus.
func checkpointLayout(docs, stride, max int) []int {
	c := (docs + stride - 1) / stride
	p := min(max, c)
	var out []int
	for i := 0; i < p; i++ {
		lo, hi := i*c/p, (i+1)*c/p
		end := hi * stride
		if i == p-1 || end > docs {
			end = docs
		}
		out = append(out, end-lo*stride)
	}
	return out
}

// TestLayoutMatchesManifestPartitions: over a table of corpus sizes,
// index strides and fan-outs, Layout at the manifest's Stride gives
// exactly Manifest.Partitions' document counts, and those are the
// checkpoint split's. A manifest without a usable index has no
// partitions, and its Stride is its size, at which Layout gives one
// partition of every document.
func TestLayoutMatchesManifestPartitions(t *testing.T) {
	index := func(docs, stride int) *PartitionIndex {
		ix := &PartitionIndex{Stride: stride}
		for k := 0; k*stride < docs; k++ {
			ix.Offsets = append(ix.Offsets, int64(k*stride*100))
		}
		return ix
	}
	cases := []struct {
		name          string
		docs, stride  int
		ix            *PartitionIndex
		maxes         []int
		partitionable bool
	}{
		{"no index", 30, 1, nil, []int{-1, 0, 1, 2, 8, 99}, false},
		{"index fails check", 30, 4, &PartitionIndex{Stride: 4, Offsets: []int64{0, 100}}, []int{1, 2, 8}, false},
		{"zero stride", 30, 0, &PartitionIndex{Stride: 0, Offsets: []int64{0}}, []int{2, 8}, false},
		{"stride 1", 30, 1, index(30, 1), []int{-1, 0, 1, 2, 3, 7, 8, 29, 30, 31, 99}, true},
		{"stride 4", 87, 4, index(87, 4), []int{1, 2, 5, 8, 21, 22, 23, 100}, true},
		{"stride 2, exact", 64, 2, index(64, 2), []int{1, 2, 3, 4, 31, 32, 33}, true},
		{"one checkpoint", 5, 8, index(5, 8), []int{1, 2, 8}, true},
		{"one document", 1, 1, index(1, 1), []int{1, 2}, true},
	}
	for _, tc := range cases {
		m := &Manifest{NumDocs: tc.docs, Bytes: int64(tc.docs) * 100, Index: tc.ix}
		for _, max := range tc.maxes {
			got := Layout(tc.docs, m.Stride(), max)
			sum := 0
			for _, n := range got {
				sum += n
			}
			if len(got) < 1 || sum != tc.docs {
				t.Fatalf("%s: Layout(%d, %d, %d) = %v, want at least one partition summing to %d", tc.name, tc.docs, m.Stride(), max, got, tc.docs)
			}
			parts := m.Partitions(max)
			if !tc.partitionable || max < 1 {
				if parts != nil || len(got) != 1 {
					t.Fatalf("%s, max %d: Partitions = %v and Layout = %v, want nil and one partition", tc.name, max, parts, got)
				}
				continue
			}
			docs := make([]int, len(parts))
			for i, p := range parts {
				docs[i] = p.Docs
			}
			if want := checkpointLayout(tc.docs, tc.stride, max); !reflect.DeepEqual(docs, got) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, max %d: Partitions' counts %v, Layout %v, checkpoint split %v", tc.name, max, docs, got, want)
			}
		}
	}
	if got := Layout(0, 1, 8); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("Layout of no records = %v, want one empty partition", got)
	}
}
