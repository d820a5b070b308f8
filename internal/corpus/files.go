package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/pdfsim"
	"repro/internal/record"
	"repro/internal/schema"
)

// WriteFiles materializes docs into dir. Documents whose filename ends in
// .pdf are wrapped in the simulated PDF container; all others are written as
// plain text. It returns the written paths in docs order.
func WriteFiles(dir string, docs []*Doc) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	paths := make([]string, 0, len(docs))
	for _, d := range docs {
		p := filepath.Join(dir, d.Filename)
		var data []byte
		if strings.HasSuffix(d.Filename, ".pdf") {
			data = pdfsim.Encode(titleOf(d.Text), d.Text)
		} else {
			data = []byte(d.Text)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			return nil, fmt.Errorf("corpus: write %s: %w", p, err)
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// Records wraps docs into records of the given schema. The schema must have
// "filename" and "contents" string fields (the built-in file schemas do).
// Each record carries the document's ground truth and its source set to
// sourceName.
func Records(docs []*Doc, s *schema.Schema, sourceName string) ([]*record.Record, error) {
	out := make([]*record.Record, 0, len(docs))
	for _, d := range docs {
		r, err := DocRecord(d, s, sourceName)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// DocRecord wraps one document into a record of the given schema (which
// must have "filename" and "contents" string fields), carrying the
// document's ground truth — the per-document unit behind Records, used by
// streaming sources that never hold a whole corpus. It fills the record's
// slots directly: a record costs its slots, its two boxed strings and
// itself.
func DocRecord(d *Doc, s *schema.Schema, sourceName string) (*record.Record, error) {
	return docRecord(d.Filename, d.Text, d.Truth, s, sourceName)
}

// docRecord is DocRecord of a document's parts.
func docRecord(filename, text string, t *Truth, s *schema.Schema, sourceName string) (*record.Record, error) {
	if s == nil {
		return nil, fmt.Errorf("corpus: record: nil schema")
	}
	name, okName := s.Index("filename")
	contents, okText := s.Index("contents")
	if !okName || !okText {
		return nil, fmt.Errorf("corpus: record: schema %s needs filename and contents fields", s.Name())
	}
	vals := make([]any, s.Len())
	vals[name], vals[contents] = filename, text
	r, err := record.NewSlots(s, vals)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	r.SetSource(sourceName)
	r.SetTruth(t)
	return r, nil
}

// TruthOf retrieves the ground truth attached to a record (nil when the
// record has none, e.g. user-supplied data), with its parts in maps and
// slices. A record that holds its truth packed (a scanned, folder-loaded
// or wire-decoded one) gets a new Truth on every call, built from the
// packed string and not kept: that costs the maps on each call, so loops
// over records read RecordTruth(r).View() instead. Any other record's
// truth is returned as it is. The corpus line decoder gives its Docs maps
// through the same builder.
func TruthOf(r *record.Record) *Truth {
	return RecordTruth(r).View().truth()
}
