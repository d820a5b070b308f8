package corpus

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/record"
	"repro/internal/schema"
)

// The NDJSON corpus format: one JSON-encoded Doc per line (filename, full
// text, embedded Truth), written in generator order, plus a manifest JSON
// file alongside (corpus path + ManifestSuffix) recording how the corpus
// was produced and a SHA-256 checksum of the NDJSON bytes. The format is
// append-only and line-delimited, so writers stream with constant memory
// and readers never need the whole file: internal/dataset registers these
// files as lazily-iterated sources, and cmd/pzcorpus generates, validates,
// and summarizes them.

// ManifestSuffix is appended to a corpus path to name its manifest file:
// "corpus.ndjson" → "corpus.ndjson.manifest.json".
const ManifestSuffix = ".manifest.json"

// NDJSONFormatVersion is the current on-disk format version, recorded in
// every manifest.
const NDJSONFormatVersion = 1

// Manifest describes one on-disk NDJSON corpus: provenance (domain, seed,
// config), counts, and the checksum `pzcorpus validate` re-derives.
type Manifest struct {
	// FormatVersion is the NDJSON corpus format version.
	FormatVersion int `json:"format_version"`
	// Domain is the generating domain name ("" for hand-made corpora).
	Domain string `json:"domain,omitempty"`
	// NumDocs is the number of document lines in the corpus file.
	NumDocs int `json:"num_docs"`
	// Seed is the generator seed the corpus was produced with.
	Seed int64 `json:"seed,omitempty"`
	// Config is the generator config, verbatim, for reproduction.
	Config json.RawMessage `json:"config,omitempty"`
	// SHA256 is the hex checksum of the corpus file's bytes.
	SHA256 string `json:"sha256"`
	// Bytes is the corpus file's size.
	Bytes int64 `json:"bytes"`
	// LabelCounts counts documents whose Truth sets each label true —
	// the corpus's class balance at a glance.
	LabelCounts map[string]int `json:"label_counts,omitempty"`
	// Index is the byte-offset partition index (see PartitionIndex):
	// checkpoint offsets that let partition-parallel scans open one range
	// reader per corpus slice. Absent on corpora written before the index
	// existed; back-fill with IndexNDJSON / `pzcorpus index`.
	Index *PartitionIndex `json:"index,omitempty"`
	// Embeddings references the per-document embedding sidecar file (see
	// EmbeddingsRef and the format comment in embed.go). Absent on corpora
	// without one; back-fill with EmbedNDJSON / `pzcorpus embed`.
	Embeddings *EmbeddingsRef `json:"embeddings,omitempty"`
}

// countingWriter tracks bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteNDJSON drains g to w as NDJSON and returns the manifest describing
// what was written (checksum, byte count, label counts). Memory is one
// document plus the generator's own footprint, so an index-addressable
// generator spills any corpus size with constant memory.
func WriteNDJSON(w io.Writer, g Generator) (*Manifest, error) {
	h := sha256.New()
	cw := &countingWriter{w: io.MultiWriter(w, h)}
	bw := bufio.NewWriterSize(cw, 1<<16)
	// lw counts encoded bytes above the buffer, so lw.n is always the byte
	// offset of the next document line — the partition index checkpoints.
	lw := &countingWriter{w: bw}
	var (
		jw   jsonWriter
		line []byte
	)

	m := &Manifest{
		FormatVersion: NDJSONFormatVersion,
		Domain:        g.Domain(),
		LabelCounts:   map[string]int{},
	}
	ix := newIndexBuilder()
	for {
		d, err := g.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("corpus: generate doc %d: %w", m.NumDocs, err)
		}
		ix.note(m.NumDocs, lw.n)
		var ok bool
		if line, ok = jw.appendDoc(line[:0], d); !ok {
			return nil, fmt.Errorf("corpus: encode doc %d: unsupported value: a truth number is NaN or infinite", m.NumDocs)
		}
		if _, err := lw.Write(line); err != nil {
			return nil, fmt.Errorf("corpus: encode doc %d: %w", m.NumDocs, err)
		}
		m.NumDocs++
		if d.Truth != nil {
			for label, v := range d.Truth.Labels {
				if v {
					m.LabelCounts[label]++
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	m.Bytes = cw.n
	m.SHA256 = hex.EncodeToString(h.Sum(nil))
	m.Index = ix.index(m.NumDocs)
	return m, nil
}

// SaveNDJSON writes g's corpus to path and the manifest next to it. seed
// and config document provenance (config may be nil; it is stored
// verbatim as JSON). Returns the written manifest. The corpus is written
// to a temporary file beside path and renamed over it only once every
// document is written, so a failed save leaves an existing corpus and its
// manifest as they were.
func SaveNDJSON(path string, g Generator, seed int64, config any) (*Manifest, error) {
	var raw json.RawMessage
	if config != nil {
		var err error
		if raw, err = json.Marshal(config); err != nil {
			return nil, fmt.Errorf("corpus: marshal config: %w", err)
		}
	}
	var m *Manifest
	write := func(w io.Writer) (err error) {
		m, err = WriteNDJSON(w, g)
		return err
	}
	// The old manifest goes before the new corpus lands: until the new
	// manifest is written, readers find the old corpus or a manifest-less
	// new one (which they count for themselves), never a manifest that
	// describes other bytes.
	dropManifest := func() error {
		if err := os.Remove(path + ManifestSuffix); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("corpus: %w", err)
		}
		return nil
	}
	if err := replaceFile(path, write, dropManifest); err != nil {
		return nil, err
	}
	m.Seed, m.Config = seed, raw
	if err := WriteManifest(path, m); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteManifest stores m next to the corpus at path, replacing any
// previous manifest whole.
func WriteManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	return replaceFile(path+ManifestSuffix, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	}, nil)
}

// replaceFile writes path's new contents through write into a temporary
// file in path's directory, then runs ready (when non-nil) and renames the
// file over path. If any step fails, path is left as it was and the
// temporary file is removed.
func replaceFile(path string, write func(io.Writer) error, ready func() error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err := write(f); err != nil {
		return err
	}
	if err := f.Chmod(0o644); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	if ready != nil {
		if err := ready(); err != nil {
			return err
		}
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	return nil
}

// ReadManifest loads the manifest of the corpus at path. os.IsNotExist
// holds on the returned error when the corpus has no manifest.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path + ManifestSuffix)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("corpus: bad manifest for %s: %w", path, err)
	}
	// Reject malformed counts and indexes here, before they can size
	// allocations (Len-capacity slices) or aim range readers at garbage
	// offsets. A corrupt manifest is an error, not a crash.
	if m.NumDocs < 0 || m.Bytes < 0 {
		return nil, fmt.Errorf("corpus: bad manifest for %s: negative counts (docs=%d bytes=%d)", path, m.NumDocs, m.Bytes)
	}
	if m.Index != nil {
		if err := m.Index.check(m.NumDocs, m.Bytes); err != nil {
			return nil, fmt.Errorf("corpus: bad manifest for %s: %w", path, err)
		}
	}
	if m.Embeddings != nil {
		if err := m.Embeddings.check(m.NumDocs); err != nil {
			return nil, fmt.Errorf("corpus: bad manifest for %s: %w", path, err)
		}
	}
	return &m, nil
}

// maxNDJSONLine bounds one corpus line (a full document plus JSON
// escaping); generated documents top out around 32 KB.
const maxNDJSONLine = 8 << 20

// DocReader streams documents from an NDJSON corpus file one line at a
// time. It implements Generator, so a file-backed corpus flows through
// the same API as a synthetic one (Collect, WriteNDJSON, validation).
// Close it when done; Next returns io.EOF after the promised count of
// documents (the manifest's, the counting pre-pass's, or the range's). A
// file that ends before that count is an error, not a clean end, and so
// is a document past the manifest's count, so a whole-file scan reads
// exactly what its partitions' range readers do.
type DocReader struct {
	domain   string
	n        int
	read     int
	manifest *Manifest
	f        *os.File
	lines    *lineReader
	dec      docDecoder
}

// OpenNDJSON opens the corpus at path. Domain and document count come
// from the manifest when present; a manifest-less file is counted with
// one streaming pre-pass so Len stays exact.
func OpenNDJSON(path string) (*DocReader, error) {
	r := &DocReader{}
	m, err := ReadManifest(path)
	switch {
	case err == nil:
		r.domain, r.n, r.manifest = m.Domain, m.NumDocs, m
	case os.IsNotExist(err):
		n, cerr := countLines(path)
		if cerr != nil {
			return nil, cerr
		}
		r.n = n
	default:
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	r.f = f
	r.lines = newLineReader(f)
	return r, nil
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	lr := newLineReader(f)
	n := 0
	for _, ok := lr.next(); ok; _, ok = lr.next() {
		n++
	}
	return n, lr.err()
}

// Domain implements Generator (empty for manifest-less corpora).
func (r *DocReader) Domain() string { return r.domain }

// Manifest returns the corpus manifest OpenNDJSON loaded (nil for
// manifest-less corpora and range readers), saving callers a second
// read-and-validate pass.
func (r *DocReader) Manifest() *Manifest { return r.manifest }

// Len implements Generator.
func (r *DocReader) Len() int { return r.n }

// Next implements Generator: it decodes the next non-empty line, up to
// the promised count.
func (r *DocReader) Next() (*Doc, error) {
	raw, err := r.nextLine()
	if err != nil {
		return nil, err
	}
	d, err := r.dec.decode(raw)
	if err != nil {
		return nil, r.lineErr(err)
	}
	return d, nil
}

// NextRecord is Next for a scan that wants records: it builds the next
// document's record under s, which needs "filename" and "contents"
// string fields, with source name sourceName, straight from the parsed
// line. The record holds its truth packed (see Truth); no Doc and no map
// is built. A line off the decoder's fast path decodes as Next decodes
// it, and its record holds the truth with maps, as DocRecord's does.
func (r *DocReader) NextRecord(s *schema.Schema, sourceName string) (*record.Record, error) {
	raw, err := r.nextLine()
	if err != nil {
		return nil, err
	}
	if filename, text, t, ok := r.dec.line(raw); ok {
		return docRecord(filename, text, t, s, sourceName)
	}
	d := new(Doc)
	if err := json.Unmarshal(raw, d); err != nil {
		return nil, r.lineErr(err)
	}
	return DocRecord(d, s, sourceName)
}

// nextLine returns the next non-empty line, up to the promised count, or
// io.EOF after it.
func (r *DocReader) nextLine() ([]byte, error) {
	if r.read == r.n {
		// A manifest counts the whole file; a range reader stops where
		// the next range begins.
		if r.manifest != nil {
			if _, more := r.lines.next(); more {
				return nil, fmt.Errorf("corpus: %s: holds more than the %d documents its manifest declares (document %d at line %d)", r.f.Name(), r.n, r.n+1, r.lines.line)
			}
		}
		return nil, io.EOF
	}
	if raw, ok := r.lines.next(); ok {
		r.read++
		return raw, nil
	}
	if err := r.lines.err(); err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", r.f.Name(), err)
	}
	if r.read < r.n {
		return nil, fmt.Errorf("corpus: %s: file ends after %d of %d documents: %w", r.f.Name(), r.read, r.n, io.ErrUnexpectedEOF)
	}
	return nil, io.EOF
}

// lineErr wraps a decode error of the line read last.
func (r *DocReader) lineErr(err error) error {
	return fmt.Errorf("corpus: %s line %d: %w", r.f.Name(), r.lines.line, err)
}

// Close releases the underlying file.
func (r *DocReader) Close() error { return r.f.Close() }
