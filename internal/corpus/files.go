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
	if s == nil {
		return nil, fmt.Errorf("corpus: record: nil schema")
	}
	name, okName := s.Index("filename")
	text, okText := s.Index("contents")
	if !okName || !okText {
		return nil, fmt.Errorf("corpus: record: schema %s needs filename and contents fields", s.Name())
	}
	vals := make([]any, s.Len())
	vals[name], vals[text] = d.Filename, d.Text
	r, err := record.NewSlots(s, vals)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	r.SetSource(sourceName)
	r.SetTruth(d.Truth)
	return r, nil
}

// TruthOf retrieves the ground truth attached to a record (nil when the
// record has none, e.g. user-supplied data).
func TruthOf(r *record.Record) *Truth {
	t, _ := r.Truth().(*Truth)
	return t
}
