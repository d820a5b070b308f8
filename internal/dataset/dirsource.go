package dataset

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/corpus"
	"repro/internal/pdfsim"
	"repro/internal/record"
	"repro/internal/schema"
)

// TruthSidecar is the filename of the optional ground-truth sidecar a
// corpus can leave next to its files. When present, DirSource re-attaches
// the hidden annotations to the loaded records so that the simulated LLM
// oracle and the metrics layer keep working across a disk round-trip.
const TruthSidecar = "_groundtruth.json"

// DirSource reads every regular file in a directory as one record,
// reproducing Palimpzest's local-folder datasets. The record schema is
// chosen from the dominant file extension.
//
// The folder is read on the first Stats call, not at registration, and
// the records are kept as a snapshot together with a stamp (size and
// modification time) of every registered file and of the truth sidecar.
// Each Stats call stats those paths and re-reads the folder only when a
// stamp changed, so an unchanged folder keeps its record instances, as
// DocsSource does. Iterate ranges over the snapshot the last Stats call
// took, so a scan's count, its partition layout and its reads all see
// one version of the folder, for one pass of stats. An edit that keeps a
// file's size and modification time is not seen. The file list is fixed
// at NewDirSource.
type DirSource struct {
	sliceSource
	dir   string
	files []string

	mu   sync.Mutex
	snap *dirSnapshot
}

// dirSnapshot is one read of a DirSource's folder.
type dirSnapshot struct {
	// stamps holds the sidecar's stamp, then each file's in files order,
	// each taken before the read.
	stamps []stamp
	recs   []*record.Record
	stats  SourceStats
}

// stamp identifies a version of a file: its size and modification time.
// An absent file has size -1.
type stamp struct{ size, mtime int64 }

// stampOf stats path. The error is one other than the file's absence.
func stampOf(path string) (stamp, error) {
	fi, err := os.Stat(path)
	switch {
	case err == nil:
		return stamp{fi.Size(), fi.ModTime().UnixNano()}, nil
	case errors.Is(err, fs.ErrNotExist):
		return stamp{size: -1}, nil
	default:
		return stamp{size: -1}, err
	}
}

// testHookLoad, when set, is called each time a DirSource reads its
// folder.
var testHookLoad func(dir string)

// NewDirSource scans dir (non-recursively) and prepares a source. The
// schema is auto-selected from the most common file extension; an empty or
// missing directory is an error.
func NewDirSource(name, dir string) (*DirSource, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	var files []string
	extCount := map[string]int{}
	for _, e := range entries {
		if e.IsDir() || e.Name() == TruthSidecar || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		files = append(files, e.Name())
		extCount[filepath.Ext(e.Name())]++
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("dataset: directory %s contains no data files", dir)
	}
	sort.Strings(files)
	// Pick the dominant extension deterministically (count desc, name asc).
	exts := make([]string, 0, len(extCount))
	for e := range extCount {
		exts = append(exts, e)
	}
	sort.Slice(exts, func(i, j int) bool {
		if extCount[exts[i]] != extCount[exts[j]] {
			return extCount[exts[i]] > extCount[exts[j]]
		}
		return exts[i] < exts[j]
	})
	s, _ := schema.ForExtension(exts[0])
	return &DirSource{sliceSource: sliceSource{name, s}, dir: dir, files: files}, nil
}

// NumFiles returns how many files the source will read.
func (d *DirSource) NumFiles() int { return len(d.files) }

// Records returns the records of the folder's current snapshot, in a
// slice of their own. It is kept beside Stats and Iterate for wallbench,
// the repository's wall-clock benchmark, whose code is held fixed between
// its runs.
func (d *DirSource) Records() ([]*record.Record, error) {
	snap, err := d.snapshot(true)
	if err != nil {
		return nil, err
	}
	return slices.Clone(snap.recs), nil
}

// Stats implements Source: it takes the folder's current snapshot and
// returns its record count, and the mean token size of its first
// statsSampleDocs records.
func (d *DirSource) Stats() (SourceStats, error) {
	snap, err := d.snapshot(true)
	if err != nil {
		return SourceStats{}, err
	}
	return snap.stats, nil
}

// Iterate implements Source over the snapshot the last Stats call took;
// without one, it takes the current snapshot first.
func (d *DirSource) Iterate(lo, hi int, yield func(*record.Record) error) error {
	snap, err := d.snapshot(false)
	if err != nil {
		return err
	}
	return d.iterate(snap.recs, lo, hi, yield)
}

// snapshot returns the folder's snapshot, reading the folder again when
// there is none or, when check is set, a stamp changed.
func (d *DirSource) snapshot(check bool) (*dirSnapshot, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.snap != nil && (!check || d.fresh(d.snap)) {
		return d.snap, nil
	}
	snap, err := d.load()
	d.snap = snap
	return snap, err
}

// fresh reports whether every path snap stamped still has its stamp.
func (d *DirSource) fresh(snap *dirSnapshot) bool {
	for i, st := range snap.stamps {
		name := TruthSidecar
		if i > 0 {
			name = d.files[i-1]
		}
		if now, err := stampOf(filepath.Join(d.dir, name)); err != nil || now != st {
			return false
		}
	}
	return true
}

// load reads the folder. A path's stamp is taken before it is read, so a
// change during the read shows as a stale stamp on the next call.
func (d *DirSource) load() (*dirSnapshot, error) {
	if testHookLoad != nil {
		testHookLoad(d.dir)
	}
	snap := &dirSnapshot{stamps: make([]stamp, 0, 1+len(d.files))}
	sidecar := filepath.Join(d.dir, TruthSidecar)
	st, _ := stampOf(sidecar) // loadSidecar reports the error
	snap.stamps = append(snap.stamps, st)
	truths, err := loadSidecar(sidecar)
	if err != nil {
		return nil, err
	}
	var out []*record.Record
	for _, f := range d.files {
		path := filepath.Join(d.dir, f)
		st, _ := stampOf(path) // ReadFile reports the error
		snap.stamps = append(snap.stamps, st)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
		recs, err := parseFile(f, data, d.schema)
		if err != nil {
			return nil, fmt.Errorf("dataset: parse %s: %w", f, err)
		}
		for _, r := range recs {
			r.SetSource(d.name)
			if gt, ok := truths[f]; ok {
				r.SetTruth(gt)
			}
			out = append(out, r)
		}
	}
	snap.recs = out
	snap.stats = sliceStats(out)
	return snap, nil
}

// parseFile converts one file into records according to its extension. The
// target schema decides the shape; CSV files fan out to one record per row.
func parseFile(name string, data []byte, target *schema.Schema) ([]*record.Record, error) {
	ext := filepath.Ext(name)
	switch {
	case ext == ".pdf" || pdfsim.IsPDF(data):
		text, err := pdfsim.ExtractText(data)
		if err != nil {
			return nil, err
		}
		r, err := record.New(target, map[string]any{"filename": name, "contents": text})
		if err != nil {
			return nil, err
		}
		return []*record.Record{r}, nil
	case ext == ".csv" && schema.Equal(target, schema.CSVRow):
		return parseCSV(name, data)
	case ext == ".json":
		return parseJSON(name, data, target)
	case ext == ".html" || ext == ".htm":
		text := StripTags(string(data))
		vals := map[string]any{"contents": text}
		if target.Has("filename") {
			vals["filename"] = name
		}
		if target.Has("url") {
			vals["url"] = name
		}
		if target.Has("title") {
			vals["title"] = htmlTitle(string(data))
		}
		r, err := record.New(target, vals)
		if err != nil {
			return nil, err
		}
		return []*record.Record{r}, nil
	default:
		r, err := record.New(target, map[string]any{"filename": name, "contents": string(data)})
		if err != nil {
			return nil, err
		}
		return []*record.Record{r}, nil
	}
}

func parseCSV(name string, data []byte) ([]*record.Record, error) {
	rd := csv.NewReader(bytes.NewReader(data))
	rd.FieldsPerRecord = -1
	rows, err := rd.ReadAll()
	if err != nil {
		return nil, err
	}
	out := make([]*record.Record, 0, len(rows))
	for i, row := range rows {
		r, err := record.New(schema.CSVRow, map[string]any{
			"filename": name, "row": i, "cells": row,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func parseJSON(name string, data []byte, target *schema.Schema) ([]*record.Record, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var any0 any
	if err := dec.Decode(&any0); err != nil {
		return nil, err
	}
	items, ok := any0.([]any)
	if !ok {
		items = []any{any0}
	}
	out := make([]*record.Record, 0, len(items))
	for _, it := range items {
		compact, err := json.Marshal(it)
		if err != nil {
			return nil, err
		}
		r, err := record.New(target, map[string]any{
			"filename": name, "contents": string(compact),
		})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// StripTags removes HTML tags and collapses whitespace; a minimal visible-
// text extractor for .html inputs.
func StripTags(html string) string {
	var b strings.Builder
	inTag := false
	for _, r := range html {
		switch {
		case r == '<':
			inTag = true
			b.WriteRune(' ')
		case r == '>':
			inTag = false
		case !inTag:
			b.WriteRune(r)
		}
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// htmlTitle returns the trimmed text between the first <title> tag and
// the </title> after it, the tags in any ASCII case. It folds the case
// byte by byte, so that offsets in the folded page are offsets in html:
// strings.ToLower changes the UTF-8 length of some runes.
func htmlTitle(html string) string {
	lower := []byte(html)
	for i, c := range lower {
		if 'A' <= c && c <= 'Z' {
			lower[i] = c + 'a' - 'A'
		}
	}
	i := bytes.Index(lower, []byte("<title>"))
	if i < 0 {
		return ""
	}
	j := bytes.Index(lower[i:], []byte("</title>"))
	if j < 0 {
		return ""
	}
	return strings.TrimSpace(html[i+len("<title>") : i+j])
}

// sidecarEntry is the JSON shape of one document's ground truth, what
// the encoding/json fallback of decodeSidecar reads.
type sidecarEntry struct {
	Filename string        `json:"filename"`
	Truth    *corpus.Truth `json:"truth"`
}

// WriteSidecar persists ground truth for docs next to their files so that a
// later DirSource load re-attaches it. It writes through the corpus
// writer (corpus.AppendTruths), so every truth is in the bytes the corpus
// decoder packs as they are. A truth number that is NaN or infinite, which
// JSON cannot carry, fails it.
func WriteSidecar(dir string, docs []*corpus.Doc) error {
	data, ok := corpus.AppendTruths(nil, docs)
	if !ok {
		return fmt.Errorf("dataset: write %s: unsupported value: a truth number is NaN or infinite", TruthSidecar)
	}
	return os.WriteFile(filepath.Join(dir, TruthSidecar), data, 0o644)
}

func loadSidecar(path string) (map[string]*corpus.Truth, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	entries, err := decodeSidecar(data)
	if err != nil {
		return nil, fmt.Errorf("dataset: bad sidecar %s: %w", path, err)
	}
	out := make(map[string]*corpus.Truth, len(entries))
	for _, e := range entries {
		out[e.Filename] = e.Truth
	}
	return out, nil
}

// decodeSidecar decodes sidecar bytes through the corpus line decoder,
// whose truths are packed, or through encoding/json, with maps, when the
// decoder declines them: the same entries, or the same error,
// json.Unmarshal gives.
func decodeSidecar(data []byte) ([]sidecarEntry, error) {
	if docs, ok := corpus.DecodeTruths(data); ok {
		entries := make([]sidecarEntry, len(docs))
		for i, d := range docs {
			entries[i] = sidecarEntry{Filename: d.Filename, Truth: d.Truth}
		}
		return entries, nil
	}
	var entries []sidecarEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, err
	}
	return entries, nil
}

// MaterializeCorpus writes docs (plus the ground-truth sidecar) into dir and
// returns a DirSource over it. This is the one-call path the examples and
// experiments use to stand up a paper workload on disk.
func MaterializeCorpus(name, dir string, docs []*corpus.Doc) (*DirSource, error) {
	if _, err := corpus.WriteFiles(dir, docs); err != nil {
		return nil, err
	}
	if err := WriteSidecar(dir, docs); err != nil {
		return nil, err
	}
	return NewDirSource(name, dir)
}

// DocsSource wraps corpus documents directly (no disk round-trip). Records
// are built once, on first use, and kept, so every Iterate yields the
// same record instances: lineage from pipeline outputs stays joinable
// with the inputs a caller saved (the metrics layer relies on this).
type DocsSource struct {
	sliceSource
	records func() ([]*record.Record, error)
}

// NewDocsSource builds a source over in-memory corpus documents using the
// given record schema (must have filename/contents fields).
func NewDocsSource(name string, s *schema.Schema, docs []*corpus.Doc) (*DocsSource, error) {
	if !s.Has("filename") || !s.Has("contents") {
		return nil, fmt.Errorf("dataset: schema %s lacks filename/contents", s.Name())
	}
	return &DocsSource{sliceSource{name, s}, sync.OnceValues(func() ([]*record.Record, error) {
		return corpus.Records(docs, s, name)
	})}, nil
}

// Stats implements Source.
func (d *DocsSource) Stats() (SourceStats, error) {
	recs, err := d.records()
	return sliceStats(recs), err
}

// Iterate implements Source.
func (d *DocsSource) Iterate(lo, hi int, yield func(*record.Record) error) error {
	recs, err := d.records()
	if err != nil {
		return err
	}
	return d.iterate(recs, lo, hi, yield)
}
