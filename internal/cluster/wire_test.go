package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/corpus"
	"repro/internal/record"
	"repro/internal/schema"
)

// jsonChunk is the reference record chunk: what a json.Encoder with HTML
// escaping off writes for the chunk of recs numbered seq.
func jsonChunk(t testing.TB, seq int, recs []*record.Record) []byte {
	t.Helper()
	line, err := encodeChunkJSON(seq, recs)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// encodeChunk returns the record chunk of recs numbered seq as the worker
// writes it (writeChunk), or false where writeChunk fails.
func encodeChunk(enc *corpus.RecordEncoder, seq int, recs []*record.Record) ([]byte, bool) {
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	ok := writeChunk(w, enc, seq, recs) == nil && w.Flush() == nil
	return b.Bytes(), ok
}

func encodeChunkJSON(seq int, recs []*record.Record) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	err := enc.Encode(PartitionChunk{Seq: seq, Records: EncodeRecords(recs)})
	return b.Bytes(), err
}

// wireSchema has a field of every type, and the fields of the records a
// corpus scan produces, so it decodes chunks of either.
var wireSchema = schema.MustNew("Wire", "every field type",
	schema.Field{Name: "filename", Type: schema.String, Desc: "a string"},
	schema.Field{Name: "contents", Type: schema.String, Desc: "a string"},
	schema.Field{Name: "count", Type: schema.Int, Desc: "an int"},
	schema.Field{Name: "ratio", Type: schema.Float, Desc: "a float"},
	schema.Field{Name: "urgent", Type: schema.Bool, Desc: "a bool"},
	schema.Field{Name: "tags", Type: schema.StringList, Desc: "a list"},
	schema.Field{Name: "blob", Type: schema.Bytes, Desc: "raw bytes"},
)

var wireDomains = []string{corpus.DomainBiomed, corpus.DomainLegal, corpus.DomainRealEstate, corpus.DomainSupport, corpus.DomainFinance}

// domainRecords returns the records a scan of n generated documents of
// the named domain produces.
func domainRecords(t testing.TB, name string, n int) []*record.Record {
	t.Helper()
	d, ok := corpus.DomainByName(name)
	if !ok {
		t.Fatalf("unknown domain %q", name)
	}
	docs, err := corpus.Collect(d.New(n, -1, 5))
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*record.Record, len(docs))
	for i, doc := range docs {
		if recs[i], err = corpus.DocRecord(doc, schema.TextFile, name); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// sameRecords reports whether a and b hold equal values, sources and
// truths, in order.
func sameRecords(a, b []*record.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Values(), b[i].Values()) || a[i].Source() != b[i].Source() ||
			!reflect.DeepEqual(corpus.TruthOf(a[i]), corpus.TruthOf(b[i])) {
			return false
		}
	}
	return true
}

// packedAsWritten reports whether every truth of got that the decoder
// packed, from the chunk line, is the truth's bytes on the line, in
// record order, and the corpus writer's rendering of the truth of ref's
// record at the same index.
func packedAsWritten(got, ref []*record.Record, line []byte) bool {
	for i := range got {
		p, packed := corpus.RecordTruth(got[i]).Packed()
		if !packed {
			continue
		}
		at := bytes.Index(line, []byte(`,"truth":`+p))
		if at < 0 {
			return false
		}
		line = line[at+1:]
		want, ok := corpus.RecordTruth(ref[i]).Canonical()
		if !ok || p != want {
			return false
		}
	}
	return true
}

// referenceChunk decodes line the way a line the fast path declines is
// decoded.
func referenceChunk(s *schema.Schema, line []byte) (PartitionChunk, []*record.Record, error) {
	ch, err := unmarshalChunk(line)
	if err != nil {
		return ch, nil, err
	}
	recs, err := DecodeRecords(s, ch.Records)
	return ch, recs, err
}

// TestChunkCodecEveryDomain: the encoder writes exactly encoding/json's
// bytes for the records of every built-in domain, and the decoder's fast
// path takes each chunk and returns the reference's records.
func TestChunkCodecEveryDomain(t *testing.T) {
	for _, name := range wireDomains {
		t.Run(name, func(t *testing.T) {
			recs := domainRecords(t, name, 40)
			var enc corpus.RecordEncoder
			var dec corpus.RecordsDecoder
			for seq, start := 0, 0; start < len(recs); seq, start = seq+1, start+16 {
				chunk := recs[start:min(start+16, len(recs))]
				line, ok := encodeChunk(&enc, seq, chunk)
				if !ok {
					t.Fatalf("chunk %d: the encoder declines", seq)
				}
				if want := jsonChunk(t, seq, chunk); !bytes.Equal(line, want) {
					t.Fatalf("chunk %d: encoder writes\n%s\nencoding/json\n%s", seq, line, want)
				}
				gotSeq, got, ok := decodeRecordChunk(&dec, line, schema.TextFile, nil)
				if !ok {
					t.Fatalf("chunk %d takes the fallback", seq)
				}
				if gotSeq != seq || !sameRecords(got, chunk) {
					t.Fatalf("chunk %d decodes to seq %d, records %v", seq, gotSeq, got)
				}
			}
		})
	}
}

// TestDecodeChunkFallback: lines off the fast path decode through
// encoding/json, with its result or its error.
func TestDecodeChunkFallback(t *testing.T) {
	for _, tc := range []struct {
		line    string
		records int
		err     string
	}{
		{`{"seq":4,"done":true,"elapsed_sim_ns":1500000001,"cost_usd":0.25}`, 0, ""},
		{`{"seq":0,"error":"boom"}`, 0, ""},
		{`{"Seq":1,"records":[{"values":{"count":3}}]}`, 1, ""},
		{`{"seq":0,"records":[{"values":{"count":1.5}}]}`, 0, "1.5 is not an int64"},
		{`{"seq":0,"records":[{"values":{"count":1e3}}]}`, 0, "1e3 is not an int64"},
		{`{"seq":0,"records":[{"values":{"nope":"x"}}]}`, 0, `no field "nope"`},
		{`{"seq":0,"records":[{"values":{"blob":"!"}}]}`, 0, "illegal base64"},
		{`{"seq":0,"records":[`, 0, "unexpected end of JSON input"},
		{`{"seq":4,"done":true,"elapsed_sim_ms":1500,"cost_usd":0.25}`, 0, "carries elapsed_sim_ms"},
		{`{"seq":01,"records":[{"values":{"count":3}}]}`, 0, "invalid character"},
		{`{"seq":+1,"records":[{"values":{"count":3}}]}`, 0, "invalid character"},
		{` {"seq":1,"records":[{"values":{"count":3}}]}`, 1, ""},
		{`{"seq":1,"records":[{"values":{"count":3}}],"seq":2}`, 1, ""},
	} {
		var dec corpus.RecordsDecoder
		if _, _, ok := decodeRecordChunk(&dec, []byte(tc.line), wireSchema, nil); ok {
			t.Errorf("the fast path takes %s", tc.line)
		}
		ch, recs, err := decodeChunk(&dec, []byte(tc.line), wireSchema, nil)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.line, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want one containing %q", tc.line, err, tc.err)
		case len(recs) != tc.records:
			t.Errorf("%s: %d records, want %d", tc.line, len(recs), tc.records)
		case strings.Contains(tc.line, "elapsed_sim_ns") && (!ch.Done || ch.ElapsedSimNS != 1500000001):
			t.Errorf("%s: done chunk decodes to %+v", tc.line, ch)
		}
	}
}

// FuzzWireChunk checks the chunk decoder's fast path against the
// reference, encoding/json and DecodeRecords: on any line, the fast path
// declines, or returns exactly the reference's seq and records for a
// line the reference decodes as a record chunk, each packed truth being
// the corpus writer's rendering of the reference's truth. Run longer with
// `go test -fuzz FuzzWireChunk ./internal/cluster`.
func FuzzWireChunk(f *testing.F) {
	for _, name := range wireDomains {
		var enc corpus.RecordEncoder
		line, _ := encodeChunk(&enc, 3, domainRecords(f, name, 2))
		f.Add(line)
	}
	for _, s := range []string{
		`{"seq":0,"records":[{"values":{"filename":"a","contents":"b","count":9007199254740993,"ratio":-0.5e-7,"urgent":false,"tags":["x","\u2028"],"blob":"AP8Q"},"truth":{"topics":["t"]},"source":"s"}]}`,
		`{"seq":1,"records":[{"values":{"count":null,"tags":null,"blob":null,"ratio":null}},{"values":{}},{}]}`,
		`{"seq":2,"records":[{"values":{"tags":[],"blob":""},"truth":null,"source":""}]}`,
		`{"records":[{"source":"s","truth":{},"values":{"urgent":true}}],"seq":7}`,
		`{"seq":0}`,
		`{}`,
		`{"seq":0,"records":[]}`,
		`{"seq":0,"records":null}`,
		`{"seq":0,"records":[null]}`,
		`{"seq":0,"records":[{"values":null}]}`,
		`{"seq":-0,"records":[{"values":{"count":-0,"ratio":-0}}]}`,
		`{"seq":1.0,"records":[]}`,
		`{"seq":99999999999999999999}`,
		`{"seq":0,"records":[{"values":{"count":1.5}}]}`,
		`{"seq":0,"records":[{"values":{"count":1e3}}]}`,
		`{"seq":0,"records":[{"values":{"count":"7"}}]}`,
		`{"seq":0,"records":[{"values":{"ratio":1e400}}]}`,
		`{"seq":0,"records":[{"values":{"blob":"!"}}]}`,
		`{"seq":0,"records":[{"values":{"nope":"x"}}]}`,
		`{"seq":0,"records":[{"values":{"Count":1}}]}`,
		`{"seq":0,"records":[{"values":{"count":1,"count":2}}]}`,
		`{"seq":0,"records":[{"values":{"count":1}},{"values":{"count":2}}],"records":[]}`,
		`{"seq":0,"records":[{"values":{"tags":["a",1]}}]}`,
		`{"seq":0,"records":[{"values":{"filename":"😀"}}]}`,
		"{\"seq\":0,\"records\":[{\"values\":{\"filename\":\"bad \xff\"}}]}",
		`{"seq":0,"records":[{"values":{"filename":"a"},"truth":{"numbers":{"n":1e400}}}]}`,
		`{"seq":0,"records":[{"values":{"filename":"a"},"truth":{"topics": ["a"]}},{"truth":{"topics":["\u00e9"]}}]}`,
		`{"seq":0,"records":[{"values":{"filename":"a"},"truth":{"labels":{"y":true,"x":false},"numbers":{"n":1.0}}}]}`,
		`{"seq":0,"records":[{"values":{"filename":"\ud83d\ude00 \ud83d"},"truth":{"mentions":[{"kind":"k","fields":{}}]}}]}`,
		`{"seq":0,"records":[{"values":{"filename":"a"},"Source":"s"}]}`,
		`{"seq":4,"done":true,"elapsed_sim_ns":1500000001,"cost_usd":0.25}`,
		`{"seq":0,"error":"boom"}`,
		`{"seq":0,"records":[]} trailing`,
		`{"seq":0,"records":[]}}`,
		`{"seq":0,"records":[],"done":true}`,
		`{"seq":1,"records":[],"seq":2}`,
		`{"seq":01,"records":[]}`,
		`{"seq":+1,"records":[]}`,
		`{"seq":-1,"records":[]}`,
		` {"seq":1 ,"records": [] } ` + "\r\n",
		`{"seq":4,"done":true,"elapsed_sim_ms":1500}`,
		`{"seq":0,"records":[`,
	} {
		f.Add([]byte(s))
	}
	var enc corpus.RecordEncoder
	canonical, _ := encodeChunk(&enc, 0, domainRecords(f, corpus.DomainSupport, 3))

	f.Fuzz(func(t *testing.T, line []byte) {
		ch, want, err := referenceChunk(wireSchema, line)
		// Decode after a canonical line, so state left in the reused
		// buffers cannot leak from one line into the next.
		var dec corpus.RecordsDecoder
		if _, _, ok := decodeRecordChunk(&dec, canonical, wireSchema, nil); !ok {
			t.Fatal("the fast path declines a canonical chunk")
		}
		seq, got, ok := decodeRecordChunk(&dec, line, wireSchema, nil)
		if !ok {
			return
		}
		switch {
		case err != nil:
			t.Fatalf("fast path accepts a line the reference rejects (%v): %q", err, line)
		case ch.Done || ch.Error != "" || ch.ElapsedSimNS != 0 || ch.CostUSD != 0 || ch.Trace != nil:
			t.Fatalf("fast path takes a terminal chunk as a record chunk: %q", line)
		case seq != ch.Seq || !sameRecords(got, want):
			t.Fatalf("fast path decodes %q to seq %d, %v; the reference to seq %d, %v", line, seq, got, ch.Seq, want)
		case !packedAsWritten(got, want, line):
			t.Fatalf("fast path packs a truth of %q otherwise than the writer renders the reference's", line)
		}
	})
}

// withInputs returns a copy of t with key, text and x added to each of
// its parts.
func withInputs(t *corpus.Truth, key, text string, x float64) *corpus.Truth {
	out := &corpus.Truth{
		Topics:   append([]string{text}, t.Topics...),
		Mentions: append([]corpus.Mention{{Kind: key, Fields: map[string]string{key: text}}}, t.Mentions...),
		Labels:   map[string]bool{key: true},
		Fields:   map[string]string{key: text},
		Numbers:  map[string]float64{key: x},
	}
	for k, v := range t.Labels {
		out.Labels[k] = v
	}
	for k, v := range t.Fields {
		out.Fields[k] = v
	}
	for k, v := range t.Numbers {
		out.Numbers[k] = v
	}
	return out
}

// FuzzAppendRecord checks the chunk encoder against encoding/json: for
// records built from fuzzed strings, ints and floats, one of wireSchema
// and one of a built-in domain, the encoder writes json.Encoder's bytes
// (HTML escaping off), or declines exactly where encoding/json fails; the
// decoder's fast path reads every chunk it writes back to what the
// reference reads, unless a string is invalid UTF-8, and then the chunk
// takes the fallback to the same records; and the records it reads,
// whose truths are packed, encode to encoding/json's bytes too. Run
// longer with `go test -fuzz FuzzAppendRecord ./internal/cluster`.
func FuzzAppendRecord(f *testing.F) {
	docs := make([]*corpus.Doc, len(wireDomains))
	for i, name := range wireDomains {
		d, _ := corpus.DomainByName(name)
		docs[i], _ = d.New(1, -1, 5).Next()
		f.Add(uint8(i), docs[i].Text[:120], docs[i].Filename, int64(len(docs[i].Truth.Topics)), 0.85)
	}
	f.Add(uint8(0), "bad \xff utf8 \xed\xa0\x80 \xf0\x9f", "k\xc3", int64(-1), 1e-7)
	f.Add(uint8(1), `<a href="x?a=1&b=2">&amp;</a>`, "<>&", int64(1<<53+1), 1e21)
	f.Add(uint8(2), "line\u2028sep\u2029end", "\u2028", int64(math.MinInt64), -0.0)
	f.Add(uint8(3), "ctl \x00\x01\x1f\x7f \b\f\n\r\t \"q\" \\", "\x00", int64(math.MaxInt64), 123456789.125)
	f.Add(uint8(4), "nan", "n", int64(0), math.NaN())
	f.Add(uint8(0), "inf", "i", int64(0), math.Inf(-1))

	f.Fuzz(func(t *testing.T, domain uint8, text, key string, n int64, x float64) {
		rec := record.MustNew(wireSchema, map[string]any{
			"filename": key, "contents": text, "count": n, "ratio": x, "urgent": n%2 == 0,
			"tags": []string{key, text}, "blob": []byte(text),
		})
		rec.SetSource(key)
		rec.SetTruth(withInputs(&corpus.Truth{}, key, text, x))
		doc := docs[int(domain)%len(docs)]
		drec, err := corpus.DocRecord(&corpus.Doc{Filename: doc.Filename, Text: text,
			Truth: withInputs(doc.Truth, key, text, float64(n))}, schema.TextFile, key)
		if err != nil {
			t.Fatal(err)
		}

		for _, recs := range [][]*record.Record{{rec}, {drec, rec}} {
			var enc corpus.RecordEncoder
			line, ok := encodeChunk(&enc, int(domain), recs)
			want, err := encodeChunkJSON(int(domain), recs)
			switch {
			case ok != (err == nil):
				t.Fatalf("encoder ok=%v, encoding/json error %v", ok, err)
			case !ok:
				continue
			case !bytes.Equal(line, want):
				t.Fatalf("encoder writes\n%q\nencoding/json\n%q", line, want)
			}
			ch, ref, err := referenceChunk(wireSchema, line)
			if err != nil {
				t.Fatal(err)
			}
			// The writer escapes invalid UTF-8 as \ufffd, which decodes to a
			// U+FFFD that the writer writes raw: such a truth is not in the
			// writer's bytes for what it decodes to, so its chunk takes the
			// fallback.
			exact := utf8.ValidString(text) && utf8.ValidString(key)
			var dec corpus.RecordsDecoder
			seq, got, ok := decodeRecordChunk(&dec, line, wireSchema, nil)
			if !exact {
				if ok {
					t.Fatalf("the fast path takes a truth that is not in the writer's bytes: %q", line)
				}
				if _, got, err = decodeChunk(&dec, line, wireSchema, nil); err != nil || !sameRecords(got, ref) {
					t.Fatalf("the fallback decodes %q to %v, %v; the reference to %v", line, got, err, ref)
				}
				seq = ch.Seq
			} else if !ok || seq != ch.Seq || !sameRecords(got, ref) || !packedAsWritten(got, ref, line) {
				t.Fatalf("fast path (ok=%v) decodes %q to seq %d, %v; the reference to seq %d, %v",
					ok, line, seq, got, ch.Seq, ref)
			} else if _, packed := corpus.RecordTruth(got[0]).Packed(); !packed {
				t.Fatalf("the fast path keeps a truth of %q in maps", line)
			}
			again, ok := encodeChunk(&enc, seq, got)
			if want, err := encodeChunkJSON(seq, got); !ok || err != nil || !bytes.Equal(again, want) {
				t.Fatalf("records with packed truths encode to\n%q\nencoding/json\n%q (%v)", again, want, err)
			}
		}
	})
}

// BenchmarkWireChunk prices one 4,096-ticket record chunk across the
// wire, encoded and decoded, through the worker's encoder and the
// coordinator's decoder ("codec") and through encoding/json with
// DecodeRecords, as the wire ran before them ("json"), per record.
func BenchmarkWireChunk(b *testing.B) {
	recs := domainRecords(b, corpus.DomainSupport, 4096)
	s := recs[0].Schema()
	perRecord := func(b *testing.B, run func() error) {
		b.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := run(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		n := float64(b.N) * float64(len(recs))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
	}
	b.Run("codec", func(b *testing.B) {
		var (
			enc  corpus.RecordEncoder
			dec  corpus.RecordsDecoder
			buf  bytes.Buffer
			back []*record.Record
		)
		w := bufio.NewWriterSize(&buf, 64<<10)
		perRecord(b, func() error {
			buf.Reset()
			if err := writeChunk(w, &enc, 0, recs); err != nil || w.Flush() != nil {
				return err
			}
			line := buf.Bytes()
			_, back, _ = decodeRecordChunk(&dec, line[:len(line)-1], s, back[:0])
			if len(back) != len(recs) {
				b.Fatalf("decoded %d records of %d", len(back), len(recs))
			}
			return nil
		})
	})
	b.Run("json", func(b *testing.B) {
		var buf bytes.Buffer
		perRecord(b, func() error {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(PartitionChunk{Records: EncodeRecords(recs)}); err != nil {
				return err
			}
			var ch PartitionChunk
			if err := json.Unmarshal(buf.Bytes(), &ch); err != nil {
				return err
			}
			_, err := DecodeRecords(s, ch.Records)
			return err
		})
	})
}
