package dataset

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/corpus"
	"repro/internal/record"
	"repro/internal/schema"
)

// textFolder writes name→contents as files into a new directory and
// registers it.
func textFolder(t *testing.T, files map[string]string) (*DirSource, string) {
	t.Helper()
	dir := t.TempDir()
	for name, contents := range files {
		writeAt(t, filepath.Join(dir, name), contents, time.Unix(1_700_000_000, 0))
	}
	src, err := NewDirSource("notes", dir)
	if err != nil {
		t.Fatal(err)
	}
	return src, dir
}

// writeAt writes contents to path and sets its modification time.
func writeAt(t *testing.T, path, contents string, mtime time.Time) {
	t.Helper()
	if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

func contentsOf(t *testing.T, src *DirSource) []string {
	t.Helper()
	recs, err := src.Records()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.GetString("contents")
	}
	return out
}

// TestDirSourceSnapshotSharesRecords: two Records calls on an unchanged
// folder return the same record instances, in slices of their own.
func TestDirSourceSnapshotSharesRecords(t *testing.T) {
	src, _ := textFolder(t, map[string]string{"a.txt": "alpha", "b.txt": "beta"})
	first, err := src.Records()
	if err != nil {
		t.Fatal(err)
	}
	second, err := src.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || len(second) != 2 {
		t.Fatalf("records = %d, %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("record %d: a second Records call built a new instance", i)
		}
	}
	first[0] = nil
	if again, _ := src.Records(); again[0] == nil {
		t.Error("Records returned the snapshot's own slice")
	}
}

// TestDirSourceSnapshotSeesRewrite: a file rewritten with a newer mtime
// is read again, even when its size did not change.
func TestDirSourceSnapshotSeesRewrite(t *testing.T) {
	src, dir := textFolder(t, map[string]string{"a.txt": "alpha", "b.txt": "beta"})
	before, err := src.Records()
	if err != nil {
		t.Fatal(err)
	}
	writeAt(t, filepath.Join(dir, "a.txt"), "omega", time.Unix(1_700_000_060, 0))
	after, err := src.Records()
	if err != nil {
		t.Fatal(err)
	}
	if got := after[0].GetString("contents"); got != "omega" {
		t.Fatalf("contents after rewrite = %q, want omega", got)
	}
	if after[1] == before[1] {
		t.Error("a reload kept a record of the old snapshot")
	}
}

// TestDirSourceSnapshotKeepsStampedEdit pins the documented limit: an
// edit that keeps both the size and the mtime is not seen.
func TestDirSourceSnapshotKeepsStampedEdit(t *testing.T) {
	src, dir := textFolder(t, map[string]string{"a.txt": "alpha"})
	if got := contentsOf(t, src); got[0] != "alpha" {
		t.Fatalf("contents = %q", got)
	}
	writeAt(t, filepath.Join(dir, "a.txt"), "omega", time.Unix(1_700_000_000, 0))
	if got := contentsOf(t, src); got[0] != "alpha" {
		t.Fatalf("contents = %q, want the snapshot's alpha", got)
	}
}

// TestDirSourceSnapshotSeesSidecar: adding, editing and removing the
// truth sidecar after registration each show on the next call.
func TestDirSourceSnapshotSeesSidecar(t *testing.T) {
	dir := t.TempDir()
	docs := corpus.GenerateLegal(corpus.LegalConfig{NumContracts: 3, IndemnificationRate: 1, Seed: 2})
	if _, err := corpus.WriteFiles(dir, docs); err != nil {
		t.Fatal(err)
	}
	src, err := NewDirSource("legal", dir)
	if err != nil {
		t.Fatal(err)
	}
	truthOf := func() *corpus.Truth {
		t.Helper()
		recs, err := src.Records()
		if err != nil {
			t.Fatal(err)
		}
		return corpus.TruthOf(recs[0])
	}
	if truthOf() != nil {
		t.Fatal("truth without a sidecar")
	}
	sidecar := filepath.Join(dir, TruthSidecar)
	setSidecar := func(docs []*corpus.Doc, mtime time.Time) {
		t.Helper()
		if err := WriteSidecar(dir, docs); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(sidecar, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	setSidecar(docs, time.Unix(1_700_000_000, 0))
	if gt := truthOf(); gt == nil || !gt.Labels[corpus.IndemnificationLabel] {
		t.Fatalf("added sidecar not seen: %+v", gt)
	}
	edited := make([]*corpus.Doc, len(docs))
	for i, d := range docs {
		edited[i] = &corpus.Doc{Filename: d.Filename, Truth: &corpus.Truth{Labels: map[string]bool{corpus.IndemnificationLabel: false}}}
	}
	setSidecar(edited, time.Unix(1_700_000_060, 0))
	if gt := truthOf(); gt == nil || gt.Labels[corpus.IndemnificationLabel] {
		t.Fatalf("edited sidecar not seen: %+v", gt)
	}
	if err := os.Remove(sidecar); err != nil {
		t.Fatal(err)
	}
	if gt := truthOf(); gt != nil {
		t.Fatalf("removed sidecar still seen: %+v", gt)
	}
}

// TestDirSourceSnapshotDeletedFileErrors: a registered file deleted
// after a load makes the next call fail, with the read's error.
func TestDirSourceSnapshotDeletedFileErrors(t *testing.T) {
	src, dir := textFolder(t, map[string]string{"a.txt": "alpha", "b.txt": "beta"})
	if _, err := src.Records(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "b.txt")); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Records(); err == nil || !strings.Contains(err.Error(), "open ") {
		t.Fatalf("Records after delete: %v, want the open error", err)
	}
	if _, err := src.Stats(); err == nil {
		t.Error("Stats counted a folder with a deleted file")
	}
}

// TestDirSourceStats: Stats counts the records and averages tokens over
// the first statsSampleDocs of them, without a second load.
func TestDirSourceStats(t *testing.T) {
	files := map[string]string{}
	for i := 0; i < statsSampleDocs+4; i++ {
		files[string(rune('a'+i))+".txt"] = strings.Repeat("word ", i+1)
	}
	src, _ := textFolder(t, files)
	loads := 0
	defer SetLoadHook(func(string) { loads++ })()
	st, err := src.Stats()
	if err != nil || st.NumRecords != len(files) || st.AvgTokens <= 0 {
		t.Fatalf("Stats = %+v, %v", st, err)
	}
	if _, err := src.Records(); err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Errorf("Stats then Records loaded the folder %d times, want 1", loads)
	}
}

// TestDirSourceIterateReadsCountedSnapshot: Iterate ranges over the
// snapshot the last Stats took, without a freshness pass of its own, so
// a range computed from a count reads the records that count counted; the
// next Stats sees an edit made in between.
func TestDirSourceIterateReadsCountedSnapshot(t *testing.T) {
	src, dir := textFolder(t, map[string]string{"a.txt": "alpha", "b.txt": "beta"})
	read := func(lo, hi int) []string {
		t.Helper()
		var out []string
		if err := src.Iterate(lo, hi, func(r *record.Record) error {
			out = append(out, r.GetString("contents"))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := read(1, 2); !reflect.DeepEqual(got, []string{"beta"}) {
		t.Fatalf("Iterate(1, 2) before any Stats = %q, want beta", got)
	}
	if st, err := src.Stats(); err != nil || st.NumRecords != 2 || st.Stride != 1 {
		t.Fatalf("Stats = %+v, %v", st, err)
	}
	writeAt(t, filepath.Join(dir, "a.txt"), "omega", time.Unix(1_700_000_060, 0))
	if got := read(0, 2); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Fatalf("Iterate after an edit = %q, want the counted snapshot", got)
	}
	if _, err := src.Stats(); err != nil {
		t.Fatal(err)
	}
	if got := read(0, 1); !reflect.DeepEqual(got, []string{"omega"}) {
		t.Fatalf("Iterate after the next Stats = %q, want omega", got)
	}
	if err := src.Iterate(1, 3, func(*record.Record) error { return nil }); err == nil {
		t.Error("Iterate accepted a range past the end")
	}
}

// TestDirSourceSnapshotConcurrent: Records, Stats and Iterate from many
// goroutines, while files change under them, race on nothing (run with
// -race) and always see a whole folder.
func TestDirSourceSnapshotConcurrent(t *testing.T) {
	src, dir := textFolder(t, map[string]string{"a.txt": "alpha", "b.txt": "beta", "c.txt": "gamma"})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				recs, err := src.Records()
				if err != nil || len(recs) != 3 {
					t.Errorf("Records = %d, %v", len(recs), err)
					return
				}
				if st, err := src.Stats(); err != nil || st.NumRecords != 3 {
					t.Errorf("Stats = %+v, %v", st, err)
					return
				}
				n := 0
				if err := src.Iterate(0, 3, func(*record.Record) error { n++; return nil }); err != nil || n != 3 {
					t.Errorf("Iterate = %d records, %v", n, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		mtime := time.Unix(1_700_000_000+int64(i), 0)
		if err := os.Chtimes(filepath.Join(dir, "b.txt"), mtime, mtime); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
}

// sidecarBytes returns what WriteSidecar writes for n documents of the
// named domain.
func sidecarBytes(t testing.TB, name string, n int, seed int64) []byte {
	t.Helper()
	d, ok := corpus.DomainByName(name)
	if !ok {
		t.Fatalf("unknown domain %q", name)
	}
	docs, err := corpus.Collect(d.New(n, -1, seed))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteSidecar(dir, docs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, TruthSidecar))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

var allDomains = []string{corpus.DomainBiomed, corpus.DomainLegal, corpus.DomainRealEstate, corpus.DomainSupport, corpus.DomainFinance}

// truthMaps returns t with its parts in maps, as TruthOf gives it.
func truthMaps(t *corpus.Truth) *corpus.Truth {
	r := record.MustNew(schema.TextFile, map[string]any{"filename": "f"})
	r.SetTruth(t)
	return corpus.TruthOf(r)
}

// checkEntries checks the sidecar entries decodeSidecar gives for data
// against want, json.Unmarshal's: the same entries in the same order,
// each truth's maps reflect.DeepEqual to want's, and a packed truth's
// string the corpus writer's rendering of want's.
func checkEntries(t *testing.T, data []byte, got, want []sidecarEntry) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("decodeSidecar %q gives %d entries (nil %v), want %d (nil %v)", data, len(got), got == nil, len(want), want == nil)
	}
	for i, w := range want {
		g := got[i]
		if maps := truthMaps(g.Truth); g.Filename != w.Filename || !reflect.DeepEqual(maps, w.Truth) {
			t.Fatalf("decodeSidecar %q: entry %d is %q, %+v; want %+v", data, i, g.Filename, maps, w)
		}
		if p, packed := g.Truth.Packed(); packed {
			if c, ok := w.Truth.Canonical(); !ok || p != c {
				t.Fatalf("decodeSidecar %q: entry %d packs\n%s\nthe writer renders\n%s", data, i, p, c)
			}
		}
	}
}

// TestSidecarFastPathEveryDomain: the sidecar WriteSidecar writes, in
// every domain, takes the corpus decoder's fast path, keeps every truth
// packed, and decodes to what json.Unmarshal gives.
func TestSidecarFastPathEveryDomain(t *testing.T) {
	for _, name := range allDomains {
		data := sidecarBytes(t, name, 40, 11)
		docs, ok := corpus.DecodeTruths(data)
		if !ok {
			t.Fatalf("%s: the sidecar takes the fallback", name)
		}
		var want []sidecarEntry
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		got, err := decodeSidecar(data)
		if err != nil || len(docs) != len(want) {
			t.Fatalf("%s: decodeSidecar = %d entries, %v; want %d", name, len(got), err, len(want))
		}
		checkEntries(t, data, got, want)
		for _, e := range got {
			if _, packed := e.Truth.Packed(); !packed {
				t.Fatalf("%s: %s keeps its truth in maps", name, e.Filename)
			}
		}
	}
}

// indentedSidecar returns the sidecar json.MarshalIndent writes for n
// documents of the named domain, as WriteSidecar wrote it before it wrote
// through the corpus writer: indented, and with '<', '>' and '&' escaped.
func indentedSidecar(t testing.TB, name string, n int, seed int64) ([]byte, []*corpus.Doc) {
	t.Helper()
	d, _ := corpus.DomainByName(name)
	docs, err := corpus.Collect(d.New(n, -1, seed))
	if err != nil {
		t.Fatal(err)
	}
	docs[0].Filename = "<a&b>.txt"
	entries := make([]sidecarEntry, len(docs))
	for i, d := range docs {
		entries[i] = sidecarEntry{Filename: d.Filename, Truth: d.Truth}
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data, docs
}

// TestIndentedSidecarLoads: a sidecar as json.MarshalIndent writes it,
// whose truths are not in the corpus writer's bytes, takes the fallback
// and loads the same truths as json.Unmarshal.
func TestIndentedSidecarLoads(t *testing.T) {
	for _, name := range allDomains {
		data, docs := indentedSidecar(t, name, 5, 3)
		if !strings.Contains(string(data), `\u003ca\u0026b\u003e.txt`) {
			t.Fatalf("%s: the sidecar does not escape HTML:\n%s", name, data)
		}
		if _, ok := corpus.DecodeTruths(data); ok {
			t.Fatalf("%s: an indented sidecar takes the fast path", name)
		}
		var want []sidecarEntry
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		got, err := decodeSidecar(data)
		if err != nil {
			t.Fatal(err)
		}
		checkEntries(t, data, got, want)
		for i, e := range got {
			g, _ := e.Truth.Canonical()
			w, _ := docs[i].Truth.Canonical()
			if e.Filename != docs[i].Filename || g != w {
				t.Fatalf("%s: entry %d is %q, %s; want %q, %s", name, i, e.Filename, g, docs[i].Filename, w)
			}
		}
	}
}

// FuzzDecodeSidecar checks the sidecar reader against encoding/json, the
// reference: for any bytes, both fail with the same error, or both give
// the same entries (checkEntries), and the fast path keeps every truth it
// takes packed, as its bytes in the input. Run longer with
// `go test -fuzz FuzzDecodeSidecar ./internal/dataset`.
func FuzzDecodeSidecar(f *testing.F) {
	for _, name := range allDomains {
		f.Add(sidecarBytes(f, name, 3, 5))
	}
	indented, _ := indentedSidecar(f, corpus.DomainLegal, 2, 5)
	f.Add(indented)
	for _, s := range []string{
		`[]`,
		` [ ] `,
		`[null]`,
		`null`,
		`{}`,
		`[{"filename":"a.txt","truth":null}]`,
		`[{"filename":"a.txt","truth":{}},{"filename":"b.txt"}]`,
		`[{"Filename":"a.txt","truth":{}}]`,
		`[{"filename":"a.txt","text":"alpha","truth":{}}]`,
		`[{"truth":{"topics":["t"]},"filename":"a.txt"}]`,
		`[{"filename":"a.txt","filename":"b.txt"}]`,
		`[{"filename":"a.txt"},{"filename":"a.txt","truth":{"labels":{"x":true}}}]`,
		`[{"filename":"a.txt","truth":{"numbers":{"big":1e400}}}]`,
		`[{"filename":"a.txt","truth":{"labels":{},"mentions":[{"kind":"k","fields":null}]}}]`,
		`[{"filename":"a.txt","truth":{"mentions":[{"kind":"k","fields":{}},{"fields":null}]}}]`,
		`[{"filename":"a.txt"},]`,
		`[{"filename":"a.txt"}] trailing`,
		`[{"filename":"a.txt"}`,
		`[1]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []sidecarEntry
		wantErr := json.Unmarshal(data, &want)
		if docs, ok := corpus.DecodeTruths(data); ok {
			if wantErr != nil {
				t.Fatalf("fast path accepts %d entries json.Unmarshal rejects (%v): %q", len(docs), wantErr, data)
			}
			for _, d := range docs {
				p, packed := d.Truth.Packed()
				if d.Truth != nil && !packed {
					t.Fatalf("fast path keeps %s's truth in maps: %q", d.Filename, data)
				}
				if packed && !strings.Contains(string(data), p) {
					t.Fatalf("fast path packs %s's truth as %s, not as its bytes in %q", d.Filename, p, data)
				}
			}
		}
		got, err := decodeSidecar(data)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("decodeSidecar error %v, json.Unmarshal error %v: %q", err, wantErr, data)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("decodeSidecar error %q, want %q", err, wantErr)
		case err == nil:
			checkEntries(t, data, got, want)
		}
	})
}

// FuzzAppendTruths checks the sidecar writer: for docs whose truths hold
// fuzzed strings and numbers, one of them from a built-in domain,
// AppendTruths fails exactly where WriteSidecar does, on a NaN or an
// infinity; otherwise json.Unmarshal reads back truths that render as
// the written ones, and the fast path takes the bytes whole, each truth
// packed as its bytes in the sidecar and as json.Unmarshal's renders
// (checkEntries), unless a truth's string is invalid UTF-8. The writer
// escapes that as \ufffd, which decodes to a U+FFFD that it writes raw,
// so such a sidecar takes the fallback. Run longer with
// `go test -fuzz FuzzAppendTruths ./internal/dataset`.
func FuzzAppendTruths(f *testing.F) {
	f.Add(uint8(0), "a.txt", "party_a", "Acme <&> Corp", 0.85)
	f.Add(uint8(1), "", "", "", 0.0)
	f.Add(uint8(2), "k\xc3.txt", "bad \xff", "\xed\xa0\x80", -1e-7)
	f.Add(uint8(2), "bad \xff.txt", "k", "v", 1.0)
	f.Add(uint8(3), "\u2028.txt", "\"q\" \\", "ctl \x00\x1f\x7f \b\f\n\r\t", 1e21)
	f.Add(uint8(4), "n.txt", "n", "nan", math.NaN())
	f.Add(uint8(0), "i.txt", "i", "inf", math.Inf(1))
	var domainDocs []*corpus.Doc
	for _, name := range allDomains {
		d, _ := corpus.DomainByName(name)
		doc, _ := d.New(1, -1, 5).Next()
		domainDocs = append(domainDocs, doc)
	}

	f.Fuzz(func(t *testing.T, domain uint8, filename, key, text string, x float64) {
		base := domainDocs[int(domain)%len(domainDocs)]
		truth := *base.Truth
		truth.Topics = append([]string{text}, truth.Topics...)
		truth.Mentions = append([]corpus.Mention{{Kind: key, Fields: map[string]string{key: text}}, {Kind: text}}, truth.Mentions...)
		truth.Labels = map[string]bool{key: true, text: false}
		truth.Fields = map[string]string{key: text}
		truth.Numbers = map[string]float64{"n": float64(len(text))}
		truth.Numbers[key] = x
		docs := []*corpus.Doc{base, {Filename: filename, Truth: &truth}, {Filename: key}}

		data, ok := corpus.AppendTruths(nil, docs)
		if finite := !math.IsNaN(x) && !math.IsInf(x, 0); ok != finite {
			t.Fatalf("AppendTruths ok=%v for the number %v", ok, x)
		}
		if !ok {
			if err := WriteSidecar(t.TempDir(), docs); err == nil {
				t.Fatalf("WriteSidecar writes the number %v", x)
			}
			return
		}
		var want []sidecarEntry
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("json.Unmarshal: %v: %q", err, data)
		}
		exact := utf8.ValidString(key) && utf8.ValidString(text) // the truths' strings
		for i, w := range want {
			if !exact || !utf8.ValidString(filename) {
				break
			}
			g, _ := w.Truth.Canonical()
			d, _ := docs[i].Truth.Canonical()
			if w.Filename != docs[i].Filename || g != d {
				t.Fatalf("entry %d reads back as %q, %s; written %q, %s", i, w.Filename, g, docs[i].Filename, d)
			}
		}
		if _, ok := corpus.DecodeTruths(data); ok != exact {
			t.Fatalf("DecodeTruths takes the written sidecar: %v, want %v: %q", ok, exact, data)
		}
		got, err := decodeSidecar(data)
		if err != nil {
			t.Fatal(err)
		}
		checkEntries(t, data, got, want)
		for _, e := range got {
			if p, packed := e.Truth.Packed(); exact && e.Truth != nil && (!packed || !strings.Contains(string(data), `"truth":`+p+"}")) {
				t.Fatalf("%s's truth is not packed as its bytes in %q", e.Filename, data)
			}
		}
	})
}

// BenchmarkDecodeSidecar prices decoding a 40-contract legal sidecar,
// against json.Unmarshal as the baseline.
func BenchmarkDecodeSidecar(b *testing.B) {
	data := sidecarBytes(b, corpus.DomainLegal, 40, 7)
	b.Run("decoder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeSidecar(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var entries []sidecarEntry
			if err := json.Unmarshal(data, &entries); err != nil {
				b.Fatal(err)
			}
		}
	})
}
