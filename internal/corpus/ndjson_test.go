package corpus

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestNDJSONRoundTrip(t *testing.T) {
	cfg := SupportConfig{NumTickets: 25, UrgentRate: 0.4, Seed: 8}
	want := GenerateSupport(cfg)
	path := filepath.Join(t.TempDir(), "support.ndjson")
	m, err := SaveNDJSON(path, NewSupportGenerator(cfg), cfg.Seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDocs != 25 || m.Domain != DomainSupport || m.Seed != 8 {
		t.Fatalf("manifest = %+v", m)
	}
	if m.LabelCounts[UrgentLabel] != 10 {
		t.Errorf("manifest urgent count = %d, want 10", m.LabelCounts[UrgentLabel])
	}

	r, err := OpenNDJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Domain() != DomainSupport || r.Len() != 25 {
		t.Fatalf("reader domain=%q len=%d", r.Domain(), r.Len())
	}
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d docs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Filename != want[i].Filename || got[i].Text != want[i].Text {
			t.Fatalf("doc %d content differs after round trip", i)
		}
		if !reflect.DeepEqual(got[i].Truth, want[i].Truth) {
			t.Fatalf("doc %d truth differs after round trip:\n got %+v\nwant %+v",
				i, got[i].Truth, want[i].Truth)
		}
	}
}

func TestWriteNDJSONChecksumIsContentOnly(t *testing.T) {
	cfg := FinanceConfig{NumFilings: 10, ProfitableRate: 0.5, Seed: 4}
	var a, b bytes.Buffer
	ma, err := WriteNDJSON(&a, NewFinanceGenerator(cfg))
	if err != nil {
		t.Fatal(err)
	}
	mb, err := WriteNDJSON(&b, NewFinanceGenerator(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if ma.SHA256 != mb.SHA256 || ma.Bytes != mb.Bytes {
		t.Fatal("same config produced different NDJSON bytes")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("buffers differ")
	}
}

func TestOpenNDJSONWithoutManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plain.ndjson")
	var buf bytes.Buffer
	if _, err := WriteNDJSON(&buf, NewSupportGenerator(SupportConfig{NumTickets: 7, UrgentRate: 0.3, Seed: 2})); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenNDJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 7 {
		t.Errorf("line-count fallback Len = %d, want 7", r.Len())
	}
	if r.Domain() != "" {
		t.Errorf("manifest-less Domain = %q, want empty", r.Domain())
	}
	docs, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 7 {
		t.Errorf("read %d docs", len(docs))
	}
}

func TestValidateNDJSONPassesFreshCorpus(t *testing.T) {
	for _, domain := range []string{DomainBiomed, DomainLegal, DomainRealEstate, DomainSupport, DomainFinance} {
		g, err := NewGenerator(domain, 40, -1, 6)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), domain+".ndjson")
		if _, err := SaveNDJSON(path, g, 6, nil); err != nil {
			t.Fatal(err)
		}
		rep, err := ValidateNDJSON(path)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Errorf("%s: fresh corpus failed validation: %v", domain, rep.Errors)
		}
		if rep.Docs != 40 {
			t.Errorf("%s: validated %d docs", domain, rep.Docs)
		}
	}
}

func TestValidateNDJSONCatchesCorruption(t *testing.T) {
	write := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "c.ndjson")
		g := NewSupportGenerator(SupportConfig{NumTickets: 12, UrgentRate: 0.5, Seed: 5})
		if _, err := SaveNDJSON(path, g, 5, nil); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("flipped byte fails checksum", func(t *testing.T) {
		path := write(t)
		data, _ := os.ReadFile(path)
		i := bytes.Index(data, []byte("Priority: P"))
		data[i+len("Priority: P")] ^= 1
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := ValidateNDJSON(path)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() {
			t.Fatal("corrupted corpus validated")
		}
		if !strings.Contains(strings.Join(rep.Errors, "\n"), "checksum") {
			t.Errorf("no checksum error in %v", rep.Errors)
		}
	})

	t.Run("truncated file fails count and checksum", func(t *testing.T) {
		path := write(t)
		data, _ := os.ReadFile(path)
		half := data[:len(data)/2]
		half = half[:bytes.LastIndexByte(half, '\n')+1] // keep whole lines
		if err := os.WriteFile(path, half, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := ValidateNDJSON(path)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() {
			t.Fatal("truncated corpus validated")
		}
	})

	t.Run("garbage line reported with line number", func(t *testing.T) {
		path := write(t)
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString("{not json\n"); err != nil {
			t.Fatal(err)
		}
		f.Close()
		rep, err := ValidateNDJSON(path)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() {
			t.Fatal("garbage line validated")
		}
		if !strings.Contains(strings.Join(rep.Errors, "\n"), "line 13") {
			t.Errorf("expected a line-13 error, got %v", rep.Errors)
		}
	})

	t.Run("missing manifest passes with a note", func(t *testing.T) {
		path := write(t)
		if err := os.Remove(path + ManifestSuffix); err != nil {
			t.Fatal(err)
		}
		rep, err := ValidateNDJSON(path)
		if err != nil {
			t.Fatal(err)
		}
		// Hand-made corpora have no manifest; content checks alone must
		// suffice, with the limitation surfaced as a note, not an error.
		if !rep.OK() {
			t.Fatalf("manifest-less corpus failed: %v", rep.Errors)
		}
		if len(rep.Notes) == 0 || !strings.Contains(rep.Notes[0], "manifest") {
			t.Fatalf("missing-manifest note absent: %v", rep.Notes)
		}
	})
}

// failAfter yields the first n documents of its generator, then fails.
type failAfter struct {
	Generator
	n int
}

func (f *failAfter) Next() (*Doc, error) {
	if f.n == 0 {
		return nil, errors.New("generator broke")
	}
	f.n--
	return f.Generator.Next()
}

// A save that fails part way must leave the corpus it would have replaced,
// and that corpus's manifest, exactly as they were.
func TestSaveNDJSONFailureKeepsPreviousCorpus(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "support.ndjson")
	want, err := SaveNDJSON(path, NewSupportGenerator(SupportConfig{NumTickets: 1000, UrgentRate: 0.3, Seed: 3}), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	broken := &failAfter{Generator: NewSupportGenerator(SupportConfig{NumTickets: 1000, UrgentRate: 0.3, Seed: 4}), n: 10}
	if _, err := SaveNDJSON(path, broken, 4, nil); err == nil {
		t.Fatal("save through a failing generator succeeded")
	}

	r, err := OpenNDJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 1000 || len(r.Manifest().Partitions(4)) != 4 || r.Manifest().Seed != 3 {
		t.Fatalf("manifest after failed save: len %d, seed %d", r.Len(), r.Manifest().Seed)
	}
	docs, err := Collect(r)
	if err != nil || len(docs) != 1000 {
		t.Fatalf("read %d docs (err %v) after failed save, want the previous 1000", len(docs), err)
	}
	rep, err := ValidateNDJSON(path)
	if err != nil || !rep.OK() || rep.SHA256 != want.SHA256 {
		t.Fatalf("previous corpus no longer validates: %+v, %v", rep, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("files left beside the corpus: %v", names)
	}
}

// A corpus cut short by whole lines must fail to scan, both as one file
// (against the manifest's count) and as a partition (against the range's).
func TestShortCorpusIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "support.ndjson")
	m, err := SaveNDJSON(path, NewSupportGenerator(SupportConfig{NumTickets: 400, UrgentRate: 0.3, Seed: 5}), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	cut := bytes.Join(lines[:len(lines)-6], nil) // 5 documents and the empty tail
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenNDJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if docs, err := Collect(r); !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "395 of 400") {
		t.Fatalf("whole-file scan of a short corpus: %d docs, err %v", len(docs), err)
	}

	parts := m.Partitions(4)
	last := parts[len(parts)-1]
	pr, err := OpenNDJSONRange(path, last.Offset, last.Docs)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	if docs, err := Collect(pr); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("partition scan of a short corpus: %d docs, err %v", len(docs), err)
	}
	for _, p := range parts[:len(parts)-1] {
		pr, err := OpenNDJSONRange(path, p.Offset, p.Docs)
		if err != nil {
			t.Fatal(err)
		}
		docs, err := Collect(pr)
		pr.Close()
		if err != nil || len(docs) != p.Docs {
			t.Fatalf("intact partition %d: %d docs, err %v", p.Ordinal, len(docs), err)
		}
	}
}

// TestLongCorpusIsAnError: whole lines appended past the manifest's count
// fail a whole-file scan after the declared documents, naming both
// counts, while the partitions' range readers still scan exactly the
// declared documents — so a query's input does not depend on whether it
// is partitioned.
func TestLongCorpusIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "support.ndjson")
	m, err := SaveNDJSON(path, NewSupportGenerator(SupportConfig{NumTickets: 100, UrgentRate: 0.3, Seed: 5}), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	long := append(data, bytes.Join(lines[:5], nil)...)
	if err := os.WriteFile(path, long, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenNDJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	docs, err := Collect(r)
	if err == nil || !strings.Contains(err.Error(), "100 documents") || !strings.Contains(err.Error(), "document 101") {
		t.Fatalf("whole-file scan of a long corpus: %d docs, err %v", len(docs), err)
	}

	total := 0
	for _, p := range m.Partitions(4) {
		pr, err := OpenNDJSONRange(path, p.Offset, p.Docs)
		if err != nil {
			t.Fatal(err)
		}
		docs, err := Collect(pr)
		pr.Close()
		if err != nil {
			t.Fatalf("partition %d: %v", p.Ordinal, err)
		}
		total += len(docs)
	}
	if total != 100 {
		t.Fatalf("partitions scanned %d docs, want 100", total)
	}
}
