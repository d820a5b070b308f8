package dataset

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/record"
	"repro/internal/schema"
)

func TestMemSource(t *testing.T) {
	recs := []*record.Record{
		record.MustNew(schema.TextFile, map[string]any{"filename": "a.txt", "contents": "alpha"}),
		record.MustNew(schema.TextFile, map[string]any{"filename": "b.txt", "contents": "beta"}),
	}
	src, err := NewMemSource("mem", schema.TextFile, recs)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, src)
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("records = %v, want the registered instances", got)
	}
	if got[0].Source() != "mem" {
		t.Errorf("source = %q", got[0].Source())
	}
	if st, err := src.Stats(); err != nil || st.NumRecords != 2 || st.Stride != 1 {
		t.Errorf("Stats = %+v, %v", st, err)
	}
	if emb, err := src.Embeddings(); emb != nil || err != nil {
		t.Errorf("Embeddings = %v, %v, want none", emb, err)
	}
}

// collect reads every record of src, failing the test on an error.
func collect(t *testing.T, src Source) []*record.Record {
	t.Helper()
	st, err := src.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var recs []*record.Record
	if err := src.Iterate(0, st.NumRecords, func(r *record.Record) error {
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestMemSourceSchemaMismatch(t *testing.T) {
	recs := []*record.Record{record.MustNew(schema.PDFFile, nil)}
	if _, err := NewMemSource("m", schema.CSVRow, recs); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	if _, err := NewMemSource("m", nil, nil); err == nil {
		t.Fatal("nil schema accepted")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	src, _ := NewMemSource("sigmod-demo", schema.TextFile, nil)
	if err := reg.Register(src); err != nil {
		t.Fatal(err)
	}
	got, err := reg.Lookup("sigmod-demo")
	if err != nil || got.Name() != "sigmod-demo" {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	if _, err := reg.Lookup("nope"); err == nil || !strings.Contains(err.Error(), "sigmod-demo") {
		t.Errorf("missing lookup error should list names: %v", err)
	}
	src2, _ := NewMemSource("other", schema.TextFile, nil)
	_ = reg.Register(src2)
	if got := reg.Names(); !reflect.DeepEqual(got, []string{"other", "sigmod-demo"}) {
		t.Errorf("Names = %v", got)
	}
	reg.Remove("other")
	if got := reg.Names(); !reflect.DeepEqual(got, []string{"sigmod-demo"}) {
		t.Errorf("after Remove Names = %v", got)
	}
	if err := reg.Register(nil); err == nil {
		t.Error("nil registration accepted")
	}
}

func TestDirSourcePDFs(t *testing.T) {
	dir := t.TempDir()
	docs := corpus.GenerateBiomed(corpus.PaperDemoBiomed())
	src, err := MaterializeCorpus("sigmod-demo", dir, docs)
	if err != nil {
		t.Fatal(err)
	}
	if src.Schema().Name() != "PDFFile" {
		t.Errorf("auto schema = %s, want PDFFile", src.Schema().Name())
	}
	if src.NumFiles() != 11 {
		t.Errorf("files = %d", src.NumFiles())
	}
	recs, err := src.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 11 {
		t.Fatalf("records = %d", len(recs))
	}
	// Ground truth survives the disk round-trip via the sidecar.
	withTruth := 0
	for _, r := range recs {
		if corpus.TruthOf(r) != nil {
			withTruth++
		}
		if !strings.Contains(r.GetString("contents"), ".") {
			t.Errorf("%s: empty-ish contents", r.GetString("filename"))
		}
		if r.Source() != "sigmod-demo" {
			t.Errorf("source = %q", r.Source())
		}
	}
	if withTruth != 11 {
		t.Errorf("records with truth = %d, want 11", withTruth)
	}
}

func TestDirSourceNoSidecar(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "note.txt"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := NewDirSource("plain", dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := src.Records()
	if err != nil || len(recs) != 1 {
		t.Fatalf("records = %d, %v", len(recs), err)
	}
	if corpus.TruthOf(recs[0]) != nil {
		t.Error("unexpected ground truth without sidecar")
	}
	if src.Schema().Name() != "TextFile" {
		t.Errorf("schema = %s", src.Schema().Name())
	}
}

func TestDirSourceErrors(t *testing.T) {
	if _, err := NewDirSource("x", "/nonexistent/path"); err == nil {
		t.Error("missing dir accepted")
	}
	empty := t.TempDir()
	if _, err := NewDirSource("x", empty); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestDirSourceSkipsHiddenAndSidecar(t *testing.T) {
	dir := t.TempDir()
	_ = os.WriteFile(filepath.Join(dir, ".hidden"), []byte("x"), 0o644)
	_ = os.WriteFile(filepath.Join(dir, TruthSidecar), []byte("[]"), 0o644)
	_ = os.WriteFile(filepath.Join(dir, "real.txt"), []byte("x"), 0o644)
	src, err := NewDirSource("d", dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.NumFiles() != 1 {
		t.Errorf("files = %d, want 1", src.NumFiles())
	}
}

func TestParseCSVFansOut(t *testing.T) {
	dir := t.TempDir()
	csvData := "name,price\nalpha,10\nbeta,20\n"
	_ = os.WriteFile(filepath.Join(dir, "data.csv"), []byte(csvData), 0o644)
	src, err := NewDirSource("csv", dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.Schema().Name() != "CSVRow" {
		t.Fatalf("schema = %s", src.Schema().Name())
	}
	recs, err := src.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("rows = %d, want 3 (header + 2)", len(recs))
	}
	cells, _ := recs[1].Get("cells")
	if !reflect.DeepEqual(cells, []string{"alpha", "10"}) {
		t.Errorf("cells = %v", cells)
	}
	if recs[2].GetInt("row") != 2 {
		t.Errorf("row = %d", recs[2].GetInt("row"))
	}
}

func TestParseJSONArrayFansOut(t *testing.T) {
	dir := t.TempDir()
	_ = os.WriteFile(filepath.Join(dir, "objs.json"), []byte(`[{"a":1},{"a":2}]`), 0o644)
	src, err := NewDirSource("j", dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := src.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if got := recs[0].GetString("contents"); got != `{"a":1}` {
		t.Errorf("contents = %q", got)
	}
}

func TestParseJSONScalarObject(t *testing.T) {
	dir := t.TempDir()
	_ = os.WriteFile(filepath.Join(dir, "obj.json"), []byte(`{"k":"v"}`), 0o644)
	src, _ := NewDirSource("j", dir)
	recs, err := src.Records()
	if err != nil || len(recs) != 1 {
		t.Fatalf("records = %d, %v", len(recs), err)
	}
}

func TestParseHTML(t *testing.T) {
	dir := t.TempDir()
	html := `<html><head><title>My Page</title></head><body><p>Visible <b>text</b> here.</p></body></html>`
	_ = os.WriteFile(filepath.Join(dir, "page.html"), []byte(html), 0o644)
	src, err := NewDirSource("web", dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.Schema().Name() != "WebPage" {
		t.Fatalf("schema = %s", src.Schema().Name())
	}
	recs, err := src.Records()
	if err != nil || len(recs) != 1 {
		t.Fatalf("records = %d, %v", len(recs), err)
	}
	if got := recs[0].GetString("title"); got != "My Page" {
		t.Errorf("title = %q", got)
	}
	txt := recs[0].GetString("contents")
	if strings.Contains(txt, "<") || !strings.Contains(txt, "Visible text here.") {
		t.Errorf("contents = %q", txt)
	}
}

func TestStripTags(t *testing.T) {
	if got := StripTags("<a href='x'>link</a> and  <i>more</i>"); got != "link and more" {
		t.Errorf("StripTags = %q", got)
	}
	if got := StripTags("no tags"); got != "no tags" {
		t.Errorf("StripTags = %q", got)
	}
}

// TestHTMLTitleFolds: the title tags are found in any ASCII case, at
// their offsets in the page as written, before runes whose lower case
// has another UTF-8 length.
func TestHTMLTitleFolds(t *testing.T) {
	for _, page := range []string{
		"<TITLE> Hello </Title>",
		strings.Repeat("İ", 40) + "<title>Hello</title>",
		strings.Repeat("Ⱥ", 40) + "<title>Hello</title>",
		strings.Repeat("Ⱥ", 40) + "<TiTlE>Hello</tItLe>" + strings.Repeat("İ", 3),
	} {
		if got := htmlTitle(page); got != "Hello" {
			t.Errorf("htmlTitle(%q) = %q, want Hello", page, got)
		}
	}
	for _, page := range []string{"no title", "<title>open", "</title><title>", "<title\x1e"} {
		if got := htmlTitle(page); got != "" {
			t.Errorf("htmlTitle(%q) = %q, want none", page, got)
		}
	}
}

func TestDocsSource(t *testing.T) {
	docs := corpus.GenerateLegal(corpus.LegalConfig{NumContracts: 5, IndemnificationRate: 0.4, Seed: 1})
	src, err := NewDocsSource("legal", schema.TextFile, docs)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(t, src)
	if len(recs) != 5 {
		t.Fatalf("records = %d", len(recs))
	}
	if corpus.TruthOf(recs[0]) == nil {
		t.Error("DocsSource lost ground truth")
	}
	if again := collect(t, src); again[0] != recs[0] {
		t.Error("a second read built new record instances")
	}
	if _, err := NewDocsSource("bad", schema.CSVRow, docs); err == nil {
		t.Error("schema without contents accepted")
	}
}

func TestSidecarRoundTrip(t *testing.T) {
	dir := t.TempDir()
	docs := corpus.GenerateLegal(corpus.LegalConfig{NumContracts: 3, IndemnificationRate: 1, Seed: 2})
	if _, err := corpus.WriteFiles(dir, docs); err != nil {
		t.Fatal(err)
	}
	if err := WriteSidecar(dir, docs); err != nil {
		t.Fatal(err)
	}
	truths, err := loadSidecar(filepath.Join(dir, TruthSidecar))
	if err != nil {
		t.Fatal(err)
	}
	if len(truths) != 3 {
		t.Fatalf("truths = %d", len(truths))
	}
	for _, d := range docs {
		gt := truthMaps(truths[d.Filename]) // the sidecar's truths are packed
		if gt == nil || !gt.Labels[corpus.IndemnificationLabel] {
			t.Errorf("%s: sidecar truth wrong: %+v", d.Filename, gt)
		}
		if gt.Fields["party_a"] != d.Truth.Fields["party_a"] {
			t.Errorf("%s: fields lost", d.Filename)
		}
	}
}

func TestLoadSidecarErrors(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, TruthSidecar)
	if got, err := loadSidecar(p); got != nil || err != nil {
		t.Errorf("missing sidecar: %v, %v", got, err)
	}
	_ = os.WriteFile(p, []byte("not json"), 0o644)
	if _, err := loadSidecar(p); err == nil {
		t.Error("corrupt sidecar accepted")
	}
}
