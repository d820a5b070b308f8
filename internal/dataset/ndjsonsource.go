package dataset

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"

	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/record"
	"repro/internal/schema"
)

// NDJSONSource is a file-backed dataset over an on-disk NDJSON corpus
// (see internal/corpus: one JSON document + embedded ground truth per
// line, manifest alongside), or over one contiguous byte range of it
// (NewNDJSONRangeSource). Its Stats come from the manifest without a
// full read, Iterate seeks to a range's byte offset through the
// manifest's partition index and decodes one document at a time, so a
// scan's memory stays constant in the corpus size, and Embeddings opens
// the sidecar the manifest names. The records it yields hold their
// truths packed (see corpus.Truth).
type NDJSONSource struct {
	name   string
	path   string
	schema *schema.Schema
	stats  SourceStats
	// offset and docs restrict a range source to its slice of the file;
	// docs is 0 for the whole file.
	offset int64
	docs   int
	// manifest is the corpus manifest when present; its partition index
	// (if any) sets the stride of the ranges Iterate accepts, and its
	// embeddings reference (if any) backs Embeddings. A range source
	// loads none.
	manifest *corpus.Manifest

	embedOnce sync.Once
	embedIx   *corpus.EmbedIndex
	embedErr  error
}

// NewNDJSONSource opens the corpus at path and prepares a source. The
// record schema is chosen from the first document's filename extension
// (".pdf" → PDFFile, ".txt" → TextFile, ...); cardinality comes from the
// manifest when present and a line count otherwise, and the average
// record size is estimated from the first documents.
func NewNDJSONSource(name, path string) (*NDJSONSource, error) {
	return (&NDJSONSource{name: name, path: path}).sample()
}

// NewNDJSONRangeSource prepares a source over the corpus slice [offset,
// offset+docs), where offset falls on a document boundary: the
// worker-side view of a scattered partition. The cluster coordinator
// splits an indexed corpus with PartitionRanges and each worker registers
// the range it was handed, so a per-partition sub-plan runs against
// precisely the records of that partition. The schema and average record
// size come from the range's first documents, as in NewNDJSONSource; an
// offset off a document boundary or a range past EOF surfaces here, at
// registration, rather than mid-pipeline. It loads no manifest, so it
// is one partition and has no embeddings.
func NewNDJSONRangeSource(name, path string, offset int64, docs int) (*NDJSONSource, error) {
	if docs < 1 {
		return nil, fmt.Errorf("dataset: range over %s needs at least 1 document, got %d", path, docs)
	}
	return (&NDJSONSource{name: name, path: path, offset: offset, docs: docs}).sample()
}

// open opens a reader over documents [lo, hi) of the source: the whole
// file, with the manifest's document count checked, for a whole corpus,
// and otherwise a range reader at the byte offset of the index
// checkpoint lo falls on (the range source's own offset for lo 0).
func (n *NDJSONSource) open(lo, hi int) (*corpus.DocReader, error) {
	var r *corpus.DocReader
	var err error
	if n.docs == 0 && lo == 0 && hi == n.stats.NumRecords {
		r, err = corpus.OpenNDJSON(n.path)
	} else {
		off := n.offset
		if lo > 0 {
			off = n.manifest.Index.Offsets[lo/n.stats.Stride]
		}
		r, err = corpus.OpenNDJSONRange(n.path, off, hi-lo)
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return r, nil
}

// sample fills in n's cardinality, manifest, schema and average record
// size from its reader and first documents, and returns n. It reads only
// their filenames and texts: their truths stay packed.
func (n *NDJSONSource) sample() (*NDJSONSource, error) {
	r, err := n.open(0, n.docs)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	n.stats.NumRecords, n.manifest = r.Len(), r.Manifest()
	n.stats.Stride = n.stats.NumRecords
	if n.manifest != nil {
		n.stats.Stride = n.manifest.Stride()
	}
	totalTokens, sampled := 0, 0
	for ; sampled < statsSampleDocs; sampled++ {
		rec, err := r.NextRecord(schema.TextFile, "")
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			// Surface corruption at registration, with its line number,
			// rather than later from an executing pipeline.
			return nil, fmt.Errorf("dataset: %w", err)
		}
		if n.schema == nil {
			s, ok := schema.ForExtension(filepath.Ext(rec.GetString("filename")))
			if !ok {
				s = schema.TextFile
			}
			n.schema = s
		}
		totalTokens += llm.CountTokens(rec.GetString("contents"))
	}
	if n.schema == nil {
		return nil, fmt.Errorf("dataset: corpus %s contains no documents", n.path)
	}
	n.stats.AvgTokens = float64(totalTokens) / float64(sampled)
	return n, nil
}

// Name implements Source.
func (n *NDJSONSource) Name() string { return n.name }

// Schema implements Source.
func (n *NDJSONSource) Schema() *schema.Schema { return n.schema }

// Path returns the backing corpus file.
func (n *NDJSONSource) Path() string { return n.path }

// Len returns the dataset's cardinality without reading records. It is
// kept beside Stats for wallbench, the repository's wall-clock benchmark,
// whose code is held fixed between its runs.
func (n *NDJSONSource) Len() int { return n.stats.NumRecords }

// Stats implements Source from the manifest (or a line count) and the
// first documents, read once at registration.
func (n *NDJSONSource) Stats() (SourceStats, error) { return n.stats, nil }

// Embeddings implements Source: the sidecar named by the manifest is
// opened (and checksum-verified against the manifest's reference) once,
// on first use, and cached for the process lifetime.
func (n *NDJSONSource) Embeddings() (*corpus.EmbedIndex, error) {
	if n.manifest == nil || n.manifest.Embeddings == nil {
		return nil, nil
	}
	n.embedOnce.Do(func() {
		ix, err := corpus.OpenEmbedSidecar(n.path, n.manifest.Embeddings)
		if err != nil {
			n.embedErr = fmt.Errorf("dataset: %w", err)
			return
		}
		n.embedIx = ix
	})
	return n.embedIx, n.embedErr
}

// Iterate implements Source. Each call opens its own reader: the whole
// file, with the manifest's document count checked, for a whole-corpus
// range, and otherwise a range reader at the byte offset of the index
// checkpoint lo falls on. A lo off every checkpoint is an error.
func (n *NDJSONSource) Iterate(lo, hi int, yield func(*record.Record) error) error {
	if err := checkRange(n.name, lo, hi, n.stats.NumRecords); err != nil {
		return err
	}
	if lo%n.stats.Stride != 0 {
		return fmt.Errorf("dataset: range start %d of %s is not on a checkpoint (every %d records)", lo, n.name, n.stats.Stride)
	}
	if lo == hi {
		return nil
	}
	r, err := n.open(lo, hi)
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		rec, err := r.NextRecord(n.schema, n.name)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("dataset: %w", err)
		}
		if err := yield(rec); err != nil {
			return stopped(err)
		}
	}
}

// IterateRecords is Iterate over the whole corpus. It is kept for
// wallbench, the repository's wall-clock benchmark, whose code is held
// fixed between its runs.
func (n *NDJSONSource) IterateRecords(yield func(*record.Record) error) error {
	return n.Iterate(0, n.stats.NumRecords, yield)
}

// PartitionRanges is the corpus's byte-range partition layout for an
// at-most-max-way split: one corpus.Partition (ordinal, byte offset,
// exact document count) per slice, with the counts Layout gives at
// Stats' stride. The cluster coordinator scatters these ranges across
// workers, each of which opens its own OpenNDJSONRange reader — the
// partition index is the cluster's scatter unit. nil (or a single
// entry) means the corpus cannot be split.
func (n *NDJSONSource) PartitionRanges(max int) []corpus.Partition {
	if n.manifest == nil {
		return nil
	}
	if parts := n.manifest.Partitions(max); len(parts) > 1 {
		return parts
	}
	return nil
}
