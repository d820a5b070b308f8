// Package dataset implements Palimpzest's input layer: named data sources
// that yield records. "At the core of Palimpzest, there are datasets:
// collections of input records. ... this could either be a local folder,
// for which every file will constitute an individual record; or an iterable
// object in memory, for which every item will be a record" (paper §3).
//
// A DirSource reads a folder, auto-selecting the record schema from file
// extensions (the paper's "native PDFFile schema ... automatically chosen
// ... given their extension"); a MemSource wraps in-memory records; a
// DocsSource wraps synthetic corpus documents directly. A process-wide
// Registry provides the named registration used by the chat tools.
package dataset

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/record"
	"repro/internal/schema"
)

// Source is a registered dataset: a name, a record schema, a count, and
// records read by range. Every source implements all of it, so the scan,
// the optimizer's sampler and its cost seed each have one path: Stats,
// then Iterate over the ranges corpus.Layout cuts at Stats' stride.
type Source interface {
	// Name identifies the dataset in the registry and in record lineage.
	Name() string
	// Schema is the schema of records the source yields.
	Schema() *schema.Schema
	// Stats counts the records and estimates their size. A folder takes
	// its snapshot here: the Iterate calls after it range over the
	// records it counted.
	Stats() (SourceStats, error)
	// Iterate calls yield for records [lo, hi) in dataset order. lo must
	// be a multiple of Stats' Stride and hi at most its NumRecords. A
	// non-nil error from yield stops iteration and is returned, except
	// ErrStop, which stops iteration and returns nil. Concurrent calls
	// share no state beyond the source's data.
	Iterate(lo, hi int, yield func(*record.Record) error) error
	// Embeddings returns the corpus's precomputed embedding sidecar (see
	// corpus.EmbedNDJSON), or (nil, nil) when it has none.
	Embeddings() (*corpus.EmbedIndex, error)
}

// ErrStop is the sentinel an Iterate yield function returns to end
// iteration early without error.
var ErrStop = errors.New("dataset: stop iteration")

// SourceStats summarizes a dataset for the optimizer's cost model and
// the scan's partition layout.
type SourceStats struct {
	// NumRecords is the dataset's exact cardinality.
	NumRecords int
	// AvgTokens is the mean per-record text size in LLM tokens,
	// estimated from the first statsSampleDocs records.
	AvgTokens float64
	// Stride is the grain of the ranges Iterate accepts: 1 for a slice,
	// the index stride for an indexed corpus, NumRecords for an
	// unindexed one.
	Stride int
}

// statsSampleDocs is how many leading records a source reads to
// estimate AvgTokens.
const statsSampleDocs = 16

// sliceStats is the SourceStats of a slice-backed source: its length,
// stride 1, and the mean Tokens(TextLen()) of its first statsSampleDocs
// records.
func sliceStats(recs []*record.Record) SourceStats {
	st := SourceStats{NumRecords: len(recs), Stride: 1}
	if n := min(len(recs), statsSampleDocs); n > 0 {
		total := 0
		for _, r := range recs[:n] {
			total += llm.Tokens(r.TextLen())
		}
		st.AvgTokens = float64(total) / float64(n)
	}
	return st
}

// checkRange rejects a range [lo, hi) that is not within n records.
func checkRange(name string, lo, hi, n int) error {
	if lo < 0 || hi < lo || hi > n {
		return fmt.Errorf("dataset: range [%d, %d) is not within the %d records of %s", lo, hi, n, name)
	}
	return nil
}

// stopped is what Iterate returns when yield returns err: nil for ErrStop.
func stopped(err error) error {
	if errors.Is(err, ErrStop) {
		return nil
	}
	return err
}

// sliceSource is what the slice-backed sources (memory, documents and
// folder) share: a name, a schema, no embedding sidecar, and Iterate over
// a slice of records with stride 1 (see sliceStats).
type sliceSource struct {
	name   string
	schema *schema.Schema
}

// Name implements Source.
func (s *sliceSource) Name() string { return s.name }

// Schema implements Source.
func (s *sliceSource) Schema() *schema.Schema { return s.schema }

// Embeddings implements Source: a slice-backed source has no sidecar.
func (s *sliceSource) Embeddings() (*corpus.EmbedIndex, error) { return nil, nil }

// iterate is Iterate over recs.
func (s *sliceSource) iterate(recs []*record.Record, lo, hi int, yield func(*record.Record) error) error {
	if err := checkRange(s.name, lo, hi, len(recs)); err != nil {
		return err
	}
	for _, r := range recs[lo:hi] {
		if err := yield(r); err != nil {
			return stopped(err)
		}
	}
	return nil
}

// MemSource is an in-memory dataset.
type MemSource struct {
	sliceSource
	recs []*record.Record
}

// NewMemSource builds an in-memory source. All records must conform to s.
func NewMemSource(name string, s *schema.Schema, recs []*record.Record) (*MemSource, error) {
	if s == nil {
		return nil, fmt.Errorf("dataset: nil schema for %q", name)
	}
	for i, r := range recs {
		if r.Schema() != s && !schema.Equal(r.Schema(), s) {
			return nil, fmt.Errorf("dataset %q: record %d has schema %s, want %s",
				name, i, r.Schema().Name(), s.Name())
		}
		r.SetSource(name)
	}
	return &MemSource{sliceSource{name, s}, recs}, nil
}

// Stats implements Source.
func (m *MemSource) Stats() (SourceStats, error) { return sliceStats(m.recs), nil }

// Iterate implements Source.
func (m *MemSource) Iterate(lo, hi int, yield func(*record.Record) error) error {
	return m.iterate(m.recs, lo, hi, yield)
}

// Registry maps dataset names to sources. The zero value is not usable;
// construct with NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	sources map[string]Source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sources: map[string]Source{}}
}

// Register adds a source under its name. Re-registering a name replaces the
// previous source (the chat flow re-registers while iterating).
func (r *Registry) Register(s Source) error {
	if s == nil || s.Name() == "" {
		return fmt.Errorf("dataset: cannot register unnamed source")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources[s.Name()] = s
	return nil
}

// Lookup returns the named source.
func (r *Registry) Lookup(name string) (Source, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.sources[name]
	if !ok {
		return nil, fmt.Errorf("dataset: no dataset registered as %q (have: %v)", name, r.names())
	}
	return s, nil
}

// Names returns the sorted registered dataset names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names()
}

func (r *Registry) names() []string {
	out := make([]string, 0, len(r.sources))
	for k := range r.sources {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Remove deletes a registration; removing an absent name is a no-op.
func (r *Registry) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sources, name)
}
