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

// ErrStop is the sentinel a RecordIterator yield function returns to end
// iteration early without error; IterateRecords swallows it and returns
// nil.
var ErrStop = errors.New("dataset: stop iteration")

// RecordIterator is an optional Source capability: sources that can yield
// records incrementally, without materializing the whole dataset. The
// executor streams such sources from disk batch by batch, and
// the optimizer samples them without a full load.
type RecordIterator interface {
	// IterateRecords calls yield for every record in dataset order. A
	// non-nil error from yield stops iteration and is returned, except
	// ErrStop, which stops iteration and returns nil.
	IterateRecords(yield func(*record.Record) error) error
}

// SourceStats summarizes a dataset for the optimizer's cost model.
type SourceStats struct {
	// NumRecords is the dataset's exact cardinality.
	NumRecords int
	// AvgTokens is the mean per-record text size in LLM tokens,
	// estimated from a prefix sample.
	AvgTokens float64
}

// Stater is an optional Source capability: sources that know their
// cardinality and record size without materializing records (e.g. from a
// corpus manifest). The optimizer seeds its cost model from Stats instead
// of calling Records when the capability is available.
type Stater interface {
	// Stats returns the summary and whether it is trustworthy; ok=false
	// sends callers down the materializing path.
	Stats() (SourceStats, bool)
}

// PartitionedSource is an optional Source capability: datasets that can
// be read as independent contiguous partitions, each by its own range
// reader (e.g. an NDJSON corpus whose manifest carries a byte-offset
// partition index). The executor fans one source+map pipeline
// out per partition and merges the results back into exact dataset order,
// so a partitioned read is observably identical to IterateRecords — just
// spread across parallel readers.
type PartitionedSource interface {
	// PartitionLayout returns the per-partition record counts, in dataset
	// order, for a fan-out of at most max partitions. nil (or a single
	// entry) means partitioned reads are unavailable — no index, or a
	// corpus too small to split.
	PartitionLayout(max int) []int
	// IteratePartition calls yield for every record of partition part
	// (0-based) of the layout computed for parts total partitions, under
	// the same ErrStop contract as IterateRecords.
	IteratePartition(parts, part int, yield func(*record.Record) error) error
}

// EmbeddingSource is an optional Source capability: corpora that carry a
// precomputed embedding sidecar (see corpus.EmbedNDJSON). The optimizer
// only enumerates the cascade-filter physical strategy over sources with
// this capability — the prefilter is free exactly because the vectors
// were paid for once at corpus-build time.
type EmbeddingSource interface {
	// Embeddings returns the sidecar index, or (nil, nil) when the corpus
	// has no sidecar. The load is lazy and cached: a cascade is only
	// worth pricing when the capability is actually consulted.
	Embeddings() (*corpus.EmbedIndex, error)
}

// statsSampleDocs is how many leading documents Stats-capable sources
// read to estimate AvgTokens (matches the optimizer's own prefix sample).
const statsSampleDocs = 16

// NDJSONSource is a file-backed dataset over an on-disk NDJSON corpus
// (see internal/corpus: one JSON document + embedded ground truth per
// line, manifest alongside), or over one contiguous byte range of it
// (NewNDJSONRangeSource). Records yields everything at once, but the
// source's point is the streaming capabilities: it implements
// RecordIterator, so the executor reads the file batch by batch in
// constant memory, and Stater, so the optimizer costs a pipeline without
// loading the corpus at all. The records it yields hold their truths
// packed (see corpus.Truth).
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
	// (if any) is what backs the PartitionedSource capability, and its
	// embeddings reference (if any) the EmbeddingSource capability. A
	// range source loads none.
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
// offers no partitions or embeddings.
func NewNDJSONRangeSource(name, path string, offset int64, docs int) (*NDJSONSource, error) {
	if docs < 1 {
		return nil, fmt.Errorf("dataset: range over %s needs at least 1 document, got %d", path, docs)
	}
	return (&NDJSONSource{name: name, path: path, offset: offset, docs: docs}).sample()
}

// open opens a reader over the source's documents.
func (n *NDJSONSource) open() (*corpus.DocReader, error) {
	var r *corpus.DocReader
	var err error
	if n.docs > 0 {
		r, err = corpus.OpenNDJSONRange(n.path, n.offset, n.docs)
	} else {
		r, err = corpus.OpenNDJSON(n.path)
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
	r, err := n.open()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	n.stats.NumRecords, n.manifest = r.Len(), r.Manifest()
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

// Len returns the dataset's cardinality without reading records.
func (n *NDJSONSource) Len() int { return n.stats.NumRecords }

// Stats implements Stater.
func (n *NDJSONSource) Stats() (SourceStats, bool) { return n.stats, true }

// Embeddings implements EmbeddingSource: the sidecar named by the
// manifest is opened (and checksum-verified against the manifest's
// reference) once, on first use, and cached for the process lifetime.
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

// IterateRecords implements RecordIterator: each call re-opens the file
// and decodes one document at a time, so memory stays constant in the
// corpus size and concurrent iterations never share state beyond the
// file itself.
func (n *NDJSONSource) IterateRecords(yield func(*record.Record) error) error {
	r, err := n.open()
	if err != nil {
		return err
	}
	return drainDocs(r, n.schema, n.name, yield)
}

// drainDocs yields every document of r as a record under schema s and
// source name, closing r when done: the read loop of IterateRecords and
// IteratePartition. Records are built straight from the corpus lines.
func drainDocs(r *corpus.DocReader, s *schema.Schema, source string, yield func(*record.Record) error) error {
	defer r.Close()
	for {
		rec, err := r.NextRecord(s, source)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("dataset: %w", err)
		}
		if err := yield(rec); err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
	}
}

// partitions computes the corpus partition layout for at most max
// partitions (nil without a manifest index).
func (n *NDJSONSource) partitions(max int) []corpus.Partition {
	if n.manifest == nil {
		return nil
	}
	return n.manifest.Partitions(max)
}

// PartitionRanges exposes the byte-range partition layout behind
// PartitionLayout: one corpus.Partition (ordinal, byte offset, exact
// document count) per slice of an at-most-max-way split. The cluster
// coordinator scatters these ranges across workers, each of which opens
// its own OpenNDJSONRange reader — the partition index is the cluster's
// scatter unit. nil (or a single entry) means the corpus cannot be split.
func (n *NDJSONSource) PartitionRanges(max int) []corpus.Partition {
	parts := n.partitions(max)
	if len(parts) < 2 {
		return nil
	}
	return parts
}

// PartitionLayout implements PartitionedSource: the per-partition record
// counts derived from the manifest's byte-offset index. Sources without
// an index (hand-made corpora, manifests written before the index format)
// return nil and scan sequentially.
func (n *NDJSONSource) PartitionLayout(max int) []int {
	parts := n.partitions(max)
	if len(parts) < 2 {
		return nil
	}
	out := make([]int, len(parts))
	for i, p := range parts {
		out[i] = p.Docs
	}
	return out
}

// IteratePartition implements PartitionedSource: an independent range
// reader seeks straight to the partition's byte offset and decodes
// exactly its documents, so concurrent partition iterations never share
// state beyond the file itself.
func (n *NDJSONSource) IteratePartition(parts, part int, yield func(*record.Record) error) error {
	layout := n.partitions(parts)
	if part < 0 || part >= len(layout) {
		return fmt.Errorf("dataset: no partition %d in %d-way layout over %s", part, len(layout), n.name)
	}
	p := layout[part]
	r, err := corpus.OpenNDJSONRange(n.path, p.Offset, p.Docs)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return drainDocs(r, n.schema, n.name, yield)
}

// Records implements Source by draining IterateRecords — the
// materializing path quality scoring takes.
func (n *NDJSONSource) Records() ([]*record.Record, error) {
	out := make([]*record.Record, 0, n.stats.NumRecords)
	err := n.IterateRecords(func(r *record.Record) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
