package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
)

// The partition index: a table of byte-offset checkpoints recorded in the
// corpus manifest, mapping document ordinals to file positions. The index
// is what makes partition-parallel scans possible — a reader can seek
// straight to document k*Stride without parsing the prefix — so the
// engine's sharded source stage opens one independent range reader per
// partition. WriteNDJSON records the index as it streams; IndexNDJSON
// back-fills it into corpora written before the index existed; and
// ValidateNDJSON re-derives it and compares checkpoint by checkpoint.

// maxIndexEntries bounds the checkpoint table. The builder starts at
// stride 1 (every document indexed, so even tiny corpora partition evenly)
// and doubles the stride whenever the table fills, so a million-document
// corpus costs a few thousand manifest entries, not a million.
const maxIndexEntries = 4096

// PartitionIndex is the byte-offset checkpoint table of one NDJSON corpus.
type PartitionIndex struct {
	// Stride is the checkpoint grain in documents: Offsets[k] is the byte
	// offset at which document k*Stride begins.
	Stride int `json:"stride"`
	// Offsets are the checkpoint byte offsets, ascending from Offsets[0],
	// which is always 0.
	Offsets []int64 `json:"offsets"`
}

// check verifies the index is internally consistent with a corpus of
// numDocs documents and size bytes: positive stride, exactly one
// checkpoint per stride of documents, and strictly ascending offsets
// inside the file. Hostile or stale manifests fail here instead of
// sending range readers to garbage offsets.
func (ix *PartitionIndex) check(numDocs int, size int64) error {
	if ix.Stride < 1 {
		return fmt.Errorf("index stride %d", ix.Stride)
	}
	want := 0
	if numDocs > 0 {
		want = (numDocs + ix.Stride - 1) / ix.Stride
	}
	if len(ix.Offsets) != want {
		return fmt.Errorf("index has %d checkpoints, want %d (%d docs at stride %d)",
			len(ix.Offsets), want, numDocs, ix.Stride)
	}
	prev := int64(-1)
	for k, off := range ix.Offsets {
		if k == 0 && off != 0 {
			return fmt.Errorf("index checkpoint 0 at offset %d, want 0", off)
		}
		if off <= prev {
			return fmt.Errorf("index checkpoint %d offset %d not ascending", k, off)
		}
		if size > 0 && off >= size {
			return fmt.Errorf("index checkpoint %d offset %d beyond corpus size %d", k, off, size)
		}
		prev = off
	}
	return nil
}

// indexBuilder accumulates checkpoint offsets during one streaming pass
// over a corpus (writing or re-scanning). It is deterministic in the
// document sequence alone, so a back-filled index is identical to the one
// the writer would have produced.
type indexBuilder struct {
	stride  int
	offsets []int64
}

func newIndexBuilder() *indexBuilder { return &indexBuilder{stride: 1} }

// note records that document i starts at byte offset off. Only stride
// multiples are kept; when the table fills, every other checkpoint is
// dropped and the stride doubles.
func (b *indexBuilder) note(i int, off int64) {
	if i%b.stride != 0 {
		return
	}
	if len(b.offsets) >= maxIndexEntries {
		n := 0
		for k := 0; k < len(b.offsets); k += 2 {
			b.offsets[n] = b.offsets[k]
			n++
		}
		b.offsets = b.offsets[:n]
		b.stride *= 2
		if i%b.stride != 0 {
			return
		}
	}
	b.offsets = append(b.offsets, off)
}

// index returns the finished table (nil for an empty corpus).
func (b *indexBuilder) index(numDocs int) *PartitionIndex {
	if numDocs <= 0 || len(b.offsets) == 0 {
		return nil
	}
	return &PartitionIndex{Stride: b.stride, Offsets: b.offsets}
}

// Partition is one contiguous slice of an NDJSON corpus: an exact document
// count starting at a byte offset that falls on a document boundary.
type Partition struct {
	// Ordinal is the partition's position in corpus order.
	Ordinal int
	// Offset is the byte offset of the partition's first document line.
	Offset int64
	// Docs is the partition's exact document count.
	Docs int
}

// Partitions splits the corpus into at most max contiguous partitions at
// checkpoint boundaries, balanced to within one stride of documents. It
// returns nil when the manifest carries no (usable) index; fewer than max
// partitions when the corpus has fewer checkpoints. Concatenating the
// partitions in ordinal order reproduces the full corpus exactly.
func (m *Manifest) Partitions(max int) []Partition {
	ix := m.Index
	if ix == nil || m.NumDocs <= 0 || max < 1 {
		return nil
	}
	if ix.check(m.NumDocs, m.Bytes) != nil {
		return nil
	}
	p := max
	if p > len(ix.Offsets) {
		p = len(ix.Offsets)
	}
	out := make([]Partition, 0, p)
	for i := 0; i < p; i++ {
		lo := i * len(ix.Offsets) / p
		hi := (i + 1) * len(ix.Offsets) / p
		endDoc := hi * ix.Stride
		if i == p-1 || endDoc > m.NumDocs {
			endDoc = m.NumDocs
		}
		out = append(out, Partition{Ordinal: i, Offset: ix.Offsets[lo], Docs: endDoc - lo*ix.Stride})
	}
	return out
}

// OpenNDJSONRange opens a range reader over the corpus at path: exactly
// docs documents starting at byte offset (which must fall on a document
// boundary — use Manifest.Partitions to compute valid ranges). Range
// readers are independent of one another, so a partition-parallel scan
// opens one per partition and reads them concurrently.
func OpenNDJSONRange(path string, offset int64, docs int) (*DocReader, error) {
	if offset < 0 || docs < 0 {
		return nil, fmt.Errorf("corpus: bad range offset=%d docs=%d", offset, docs)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("corpus: seek %s to %d: %w", path, offset, err)
	}
	return &DocReader{n: docs, f: f, lines: newLineReader(f)}, nil
}

// IndexNDJSON back-fills the byte-offset partition index of the corpus at
// path: one streaming pass re-derives the checksum, document count, label
// counts, and checkpoint table, then rewrites the manifest with the index
// attached. A corpus whose manifest predates the index format (or was
// written by hand) becomes partitionable without regeneration. When no
// manifest exists one is created (domain and seed unknown); when one
// exists its checksum must match the file — a stale manifest is an error,
// not something to silently overwrite. Returns the updated manifest and
// whether it was newly created.
func IndexNDJSON(path string) (*Manifest, bool, error) {
	m, err := ReadManifest(path)
	created := false
	switch {
	case os.IsNotExist(err):
		m = &Manifest{FormatVersion: NDJSONFormatVersion}
		created = true
	case err != nil:
		return nil, false, err
	}

	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	lr := newLineReader(io.TeeReader(f, h))
	var dec docDecoder
	b := newIndexBuilder()
	labels := map[string]int{}
	docs := 0
	for raw, ok := lr.next(); ok; raw, ok = lr.next() {
		d, err := dec.decode(raw)
		if err != nil {
			return nil, false, fmt.Errorf("corpus: %s line %d: %w", path, lr.line, err)
		}
		b.note(docs, lr.start)
		docs++
		if d.Truth != nil {
			for label, v := range d.Truth.Labels {
				if v {
					labels[label]++
				}
			}
		}
	}
	if err := lr.err(); err != nil {
		return nil, false, fmt.Errorf("corpus: %s: %w", path, err)
	}
	sha := hex.EncodeToString(h.Sum(nil))

	if created {
		m.NumDocs = docs
		m.Bytes = lr.end
		m.SHA256 = sha
		m.LabelCounts = labels
	} else {
		if m.SHA256 != sha {
			return nil, false, fmt.Errorf("corpus: %s changed since its manifest was written (checksum %s, manifest %s); regenerate the corpus or delete the manifest before indexing",
				path, sha, m.SHA256)
		}
		if m.NumDocs != docs {
			return nil, false, fmt.Errorf("corpus: %s has %d docs, manifest says %d", path, docs, m.NumDocs)
		}
	}
	m.Index = b.index(docs)
	if err := WriteManifest(path, m); err != nil {
		return nil, false, err
	}
	return m, created, nil
}
