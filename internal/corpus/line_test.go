package corpus

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/schema"
)

// domainLines returns the NDJSON lines WriteNDJSON writes for n documents
// of the named domain.
func domainLines(t testing.TB, name string, n int, seed int64) [][]byte {
	t.Helper()
	d, ok := DomainByName(name)
	if !ok {
		t.Fatalf("unknown domain %q", name)
	}
	var buf bytes.Buffer
	if _, err := WriteNDJSON(&buf, d.New(n, -1, seed)); err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
}

var allDomains = []string{DomainBiomed, DomainLegal, DomainRealEstate, DomainSupport, DomainFinance}

// TestDecodeFastPathEveryDomain: every line the writer produces, in every
// domain, takes the decoder's fast path and decodes to what json.Unmarshal
// gives. A writer change that moved lines off the canonical shape would
// silently send them all to the slower fallback; this test names it.
func TestDecodeFastPathEveryDomain(t *testing.T) {
	for _, name := range allDomains {
		t.Run(name, func(t *testing.T) {
			var dec docDecoder
			lines := domainLines(t, name, 200, 11)
			for i, line := range lines {
				if _, _, _, ok := dec.line(line); !ok {
					t.Fatalf("line %d takes the fallback: %s", i+1, line)
				}
				var want Doc
				if err := json.Unmarshal(line, &want); err != nil {
					t.Fatal(err)
				}
				if got, err := dec.decode(line); err != nil || !reflect.DeepEqual(got, &want) {
					t.Fatalf("line %d decodes to\n%+v\nwant\n%+v", i+1, got, &want)
				}
			}
		})
	}
}

// checkRecordPath checks the record path's decode of line against want,
// json.Unmarshal's: it takes the lines the fast path takes (fastOK), and
// gives the record want's filename and text, a truth that TruthOf reads
// back as want's, and, when it packs the truth, the truth's bytes on the
// line, which are the corpus writer's rendering of want's.
func checkRecordPath(t *testing.T, dec *docDecoder, line []byte, fastOK bool, want *Doc) {
	t.Helper()
	filename, text, truth, ok := dec.line(line)
	if ok != fastOK {
		t.Fatalf("the record path takes %q: %v, the fast path: %v", line, ok, fastOK)
	}
	if !ok {
		return
	}
	r, err := docRecord(filename, text, truth, schema.TextFile, "")
	if err != nil {
		t.Fatal(err)
	}
	if filename != want.Filename || text != want.Text || !reflect.DeepEqual(TruthOf(r), want.Truth) {
		t.Fatalf("the record path decodes %q to %q, %q, %+v; want %+v", line, filename, text, TruthOf(r), want)
	}
	if p, packed := truth.Packed(); packed {
		if p != string(dec.truth) || !bytes.Contains(line, dec.truth) {
			t.Fatalf("the record path packs the truth of %q as\n%s\nnot as its bytes on the line\n%s", line, p, dec.truth)
		}
		if w, ok := want.Truth.Canonical(); !ok || p != w {
			t.Fatalf("the record path packs the truth of %q as\n%s\nthe writer renders\n%s", line, p, w)
		}
	}
}

// TestExactTruthBytes: the fast path takes a truth only in the bytes the
// corpus writer writes for it. Each truth below is one encoding/json
// accepts; on a corpus line, in a sidecar and in a wire record, the
// writer's bytes are packed as they stand, and any other bytes take the
// fallback, which decodes the line as json.Unmarshal does.
func TestExactTruthBytes(t *testing.T) {
	for _, tc := range []struct {
		truth string
		fast  bool
	}{
		{`null`, true},
		{`{}`, true},
		{`{"mentions":[{"kind":"k","fields":{}}]}`, true},
		{`{"mentions":[{"kind":"k","fields":null},{"kind":"","fields":{"a":"b","b":""}}]}`, true},
		{`{"topics":["a","a"],"mentions":[{"kind":"k","fields":{"a":"b"}}],"labels":{"x":true,"y":false},"fields":{"f":"v"},"numbers":{"a":-0,"b":0.85,"c":1e-7,"d":1e+21,"e":123456789}}`, true},
		{"{\"topics\":[\"\\\" \\\\ \\b\\f\\n\\r\\t \\u0000\\u001f \\u2028\\u2029 é\ufffd😀 <&> \x7f\"]}", true},
		{`{"topics":["\u007f"]}`, false},
		{`{"labels":{"\n":true,"\"":false}}`, true},
		{`{"topics": ["a"]}`, false},
		{` {"topics":["a"]}`, true}, // space before the truth, not in it
		{`{"topics":["a"] }`, false},
		{`{"labels":{"x":true},"topics":["a"]}`, false},
		{`{"labels":{"y":true,"x":false}}`, false},
		{`{"labels":{"\"":false,"\n":true}}`, false},
		{`{"fields":{"x":"a","x":"b"}}`, false},
		{`{"topics":["a"],"topics":["b"]}`, false},
		{`{"labels":{}}`, false},
		{`{"topics":[]}`, false},
		{`{"mentions":[]}`, false},
		{`{"fields":{},"numbers":{"x":1}}`, false},
		{`{"numbers":{"x":1.0}}`, false},
		{`{"numbers":{"x":1e2}}`, false},
		{`{"numbers":{"x":1E-7}}`, false},
		{`{"numbers":{"x":0.000001e0}}`, false},
		{`{"numbers":{"x":-0.0}}`, false},
		{`{"topics":["caf\u00e9"]}`, false},
		{`{"topics":["a\/b"]}`, false},
		{`{"topics":["\ufffd"]}`, false},
		{`{"topics":["\u001F"]}`, false},
		{`{"topics":["\u0008"]}`, false},
		{`{"topics":["\u0041"]}`, false},
		{`{"topics":["\ud83d\ude00"]}`, false},
		{`{"topics":["\u2028"]}`, true},
		{"{\"topics\":[\"a\u2028b\"]}", false},
		{`{"mentions":[{"fields":{"a":"b"}}]}`, false},
		{`{"mentions":[{"kind":"k"}]}`, false},
		{`{"mentions":[{"fields":null,"kind":"k"}]}`, false},
		{`{"mentions":[{"kind":"k","fields":{"b":"","a":""}}]}`, false},
		{`{"Topics":["a"]}`, false},
		{`{"topics":null}`, false},
		{`{"labels":{"x":true},"extra":1}`, false},
	} {
		line := []byte(`{"filename":"a.txt","text":"b","truth":` + tc.truth + `}`)
		var want Doc
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		var dec docDecoder
		checkRecordPath(t, &dec, line, tc.fast, &want)
		if got, err := dec.decode(line); err != nil || !reflect.DeepEqual(got, &want) {
			t.Fatalf("%s decodes to\n%+v, %v\nwant\n%+v", line, got, err, &want)
		}
		packed := func(where string, truth *Truth) {
			t.Helper()
			if p, _ := truth.Packed(); truth != nil && p != strings.TrimSpace(tc.truth) || truth == nil && tc.truth != "null" {
				t.Fatalf("%s packs %s as %q", where, tc.truth, p)
			}
		}
		docs, ok := DecodeTruths([]byte(`[{"filename":"a.txt","truth":` + tc.truth + `}]`))
		if ok != tc.fast {
			t.Fatalf("DecodeTruths takes %s: %v, want %v", tc.truth, ok, tc.fast)
		}
		if ok {
			packed("DecodeTruths", docs[0].Truth)
		}
		var rd RecordsDecoder
		recs, ok := rd.Decode([]byte(`[{"values":{"filename":"a.txt","contents":"b"},"truth":`+tc.truth+`}]`), schema.TextFile, nil)
		if ok != tc.fast {
			t.Fatalf("RecordsDecoder takes %s: %v, want %v", tc.truth, ok, tc.fast)
		}
		if ok {
			packed("RecordsDecoder", RecordTruth(recs[0]))
		}
	}
}

// TestNextRecordEveryDomain: a scan reads every line the writer produces,
// in every domain, into a record whose truth is packed, and that reads
// back as json.Unmarshal's.
func TestNextRecordEveryDomain(t *testing.T) {
	for _, name := range allDomains {
		t.Run(name, func(t *testing.T) {
			var dec docDecoder
			for i, line := range domainLines(t, name, 200, 11) {
				var want Doc
				if err := json.Unmarshal(line, &want); err != nil {
					t.Fatal(err)
				}
				checkRecordPath(t, &dec, line, true, &want)
				if _, _, truth, _ := dec.line(line); truth == nil {
					t.Fatalf("line %d has no truth", i+1)
				} else if _, packed := truth.Packed(); !packed {
					t.Fatalf("line %d keeps its truth in maps", i+1)
				}
			}
		})
	}
}

// FuzzDecodeDoc checks the corpus line decoder against encoding/json, the
// reference: for any line, both fail with the same error, or both give
// reflect.DeepEqual docs. A line the fast path accepts must also be one
// json.Unmarshal accepts, with an equal doc, and the record path
// (checkRecordPath) must agree with both. Run longer with
// `go test -fuzz FuzzDecodeDoc ./internal/corpus`.
func FuzzDecodeDoc(f *testing.F) {
	for _, name := range allDomains {
		f.Add(domainLines(f, name, 1, 3)[0])
	}
	for _, s := range []string{
		`{"filename":"a.txt","text":"alpha","truth":null}`,
		`{"filename":"a.txt","text":"alpha","truth":{"topics":[],"mentions":[],"labels":{},"fields":{},"numbers":{}}}`,
		`{"filename":"a.txt","text":"alpha","truth":{"mentions":[{"kind":"k","fields":{}},{}]}}`,
		`{"filename":"a.txt","text":"alpha","truth":{"mentions":[{"kind":"k","fields":null},{"fields":null,"kind":"j"}]}}`,
		`{"filename":"a.txt","text":"alpha","truth":{}}`,
		`{}`,
		` { "filename" : "a.txt" , "text" : "b" } `,
		`{"filename":"é \u0000","text":"tab\tquote\"slash\/\\ \b\f\r\n"}`,
		`{"filename":"😀","text":"pair \ud83d\ude00"}`,
		`{"filename":"\ud83d","text":"lone surrogate"}`,
		"{\"filename\":\"bad \xff utf8\",\"text\":\"\xed\xa0\x80\"}",
		"{\"filename\":\"ctl\x01\",\"text\":\"\"}",
		`{"Filename":"case.txt","text":"variant"}`,
		`{"filename":"a","filename":"b","text":"dup"}`,
		`{"filename":"a","text":"b","truth":{"labels":{"x":true,"x":false}}}`,
		`{"filename":"a","text":"b","truth":{"labels":{"x":true}},"truth":{"fields":{"y":"z"}}}`,
		`{"truth":{"topics":["t"]},"filename":"a","text":"b"}`,
		`{"truth":{"fields":{}},"text":"","filename":""}`,
		`{"filename":"a","text":"b","extra":1}`,
		`{"filename":"a","text":"b","truth":{"unknown":[1,2]}}`,
		`{"filename":null,"text":"b"}`,
		`{"filename":"a","text":"b","truth":{"topics":null}}`,
		`{"filename":"a","text":"b"} trailing`,
		`{"filename":"a","text":"b"}}`,
		`{"filename":"a","text":"b",}`,
		`{"filename":"a","text":"b","truth":{"numbers":{"big":1e400}}}`,
		`{"filename":"a","text":"b","truth":{"numbers":{"neg":-0,"e":1.5E+3,"f":-0.85}}}`,
		`{"filename":"a","text":"b","truth":{"numbers":{"lead":01}}}`,
		`{"filename":"a","text":"b","truth":{"labels":{"x":1}}}`,
		`{"filename":"a","text":"b","truth":{"topics": ["a"],"numbers":{"x":1.0}}}`,
		`{"filename":"a","text":"b","truth":{"labels":{"y":true,"x":false},"fields":{"f":"caf\u00e9 \/"}}}`,
		`{"filename":"a","text":"b","truth":{"mentions":[{"fields":{"b":"","a":""},"kind":"k"}]}}`,
		`null`,
		`{"filename":"a","text":"tru`,
	} {
		f.Add([]byte(s))
	}
	canonical := domainLines(f, DomainSupport, 1, 4)[0]

	f.Fuzz(func(t *testing.T, line []byte) {
		var want Doc
		wantErr := json.Unmarshal(line, &want)
		var dec docDecoder
		_, _, _, fastOK := dec.line(line)
		if fastOK {
			if wantErr != nil {
				t.Fatalf("fast path accepts a line json.Unmarshal rejects (%v): %q", wantErr, line)
			}
			if got, err := dec.decode(line); err != nil || !reflect.DeepEqual(got, &want) {
				t.Fatalf("fast path decodes %q to\n%+v, %v\nwant\n%+v", line, got, err, &want)
			}
		}
		checkRecordPath(t, &dec, line, fastOK, &want)
		// Decode it again after a canonical line, so state left in the
		// reused buffers cannot leak from one line into the next.
		if _, err := dec.decode(canonical); err != nil {
			t.Fatal(err)
		}
		got, err := dec.decode(line)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("decode error %v, json.Unmarshal error %v: %q", err, wantErr, line)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("decode error %q, want %q", err, wantErr)
		case err == nil && !reflect.DeepEqual(got, &want):
			t.Fatalf("decode %q gives\n%+v\nwant\n%+v", line, got, &want)
		}
	})
}

// BenchmarkDecodeDoc prices decoding one support-corpus line, against
// json.Unmarshal as the baseline.
func BenchmarkDecodeDoc(b *testing.B) {
	lines := domainLines(b, DomainSupport, 1000, 7)
	b.Run("decoder", func(b *testing.B) {
		b.ReportAllocs()
		var dec docDecoder
		for i := 0; i < b.N; i++ {
			if _, err := dec.decode(lines[i%len(lines)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var d Doc
			if err := json.Unmarshal(lines[i%len(lines)], &d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestIndexNDJSONCRLF: a corpus with "\r\n" line ends indexes at the
// lines' true offsets, so every partition reads back exactly its slice of
// the whole-file read, and the validator agrees with the index.
func TestIndexNDJSONCRLF(t *testing.T) {
	d, _ := DomainByName(DomainSupport)
	lf, _ := saveDomainCorpus(t, d, 8, 5)
	data, err := os.ReadFile(lf)
	if err != nil {
		t.Fatal(err)
	}
	crlf := bytes.ReplaceAll(data, []byte("\n"), []byte("\r\n"))
	path := filepath.Join(t.TempDir(), "crlf.ndjson")
	if err := os.WriteFile(path, crlf, 0o644); err != nil {
		t.Fatal(err)
	}
	m, _, err := IndexNDJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Bytes != int64(len(crlf)) {
		t.Errorf("manifest says %d bytes, file has %d", m.Bytes, len(crlf))
	}
	var starts []int64
	for off := 0; off < len(crlf); off += bytes.IndexByte(crlf[off:], '\n') + 1 {
		starts = append(starts, int64(off))
	}
	if m.Index == nil || m.Index.Stride != 1 || !reflect.DeepEqual(m.Index.Offsets, starts) {
		t.Fatalf("index %+v, want stride 1 at line starts %v", m.Index, starts)
	}

	readAll := func(path string) []*Doc {
		r, err := OpenNDJSON(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		docs, err := Collect(r)
		if err != nil {
			t.Fatal(err)
		}
		return docs
	}
	whole := readAll(path)
	if want := marshalDocs(t, readAll(lf)); marshalDocs(t, whole) != want {
		t.Fatal("CRLF corpus reads differently from its LF original")
	}
	for p := 1; p <= len(whole); p++ {
		var got []*Doc
		for _, part := range m.Partitions(p) {
			r, err := OpenNDJSONRange(path, part.Offset, part.Docs)
			if err != nil {
				t.Fatal(err)
			}
			docs, err := Collect(r)
			r.Close()
			if err != nil {
				t.Fatalf("%d partitions: partition %d: %v", p, part.Ordinal, err)
			}
			got = append(got, docs...)
		}
		if marshalDocs(t, got) != marshalDocs(t, whole) {
			t.Fatalf("%d partitions read differently from the whole file", p)
		}
	}

	rep, err := ValidateNDJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Bytes != int64(len(crlf)) {
		t.Fatalf("validation: bytes %d of %d, errors %v", rep.Bytes, len(crlf), rep.Errors)
	}
}
