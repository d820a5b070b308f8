package corpus

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// encodeJSON appends v as a json.Encoder with HTML escaping off writes
// it: the reference for the corpus writer's appenders.
func encodeJSON(dst []byte, v any) ([]byte, error) {
	b := bytes.NewBuffer(dst)
	enc := json.NewEncoder(b)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return b.Bytes(), err
}

// TestAppendDocMatchesEncoder: the corpus writer's appenders write what a
// json.Encoder with HTML escaping off writes, for the documents of every
// domain and for strings and numbers at the edges of encoding/json's
// escaping and float format. A NaN or an infinity, which encoding/json
// cannot encode either, makes them decline, and WriteNDJSON fail.
func TestAppendDocMatchesEncoder(t *testing.T) {
	var docs []*Doc
	for _, name := range allDomains {
		d, _ := DomainByName(name)
		all, err := Collect(d.New(30, -1, 9))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, all...)
	}
	edge := "<a href=\"x?a=1&b=2\">&amp;</a> \u2028\u2029 \x00\x01\x1f\x7f \b\f\n\r\t \"q\" \\ /" +
		" bad \xff \xed\xa0\x80 \xf0\x9f 😀 \ufffd é"
	docs = append(docs,
		&Doc{Filename: edge, Text: edge, Truth: &Truth{
			Topics:   []string{edge, ""},
			Mentions: []Mention{{Kind: edge, Fields: map[string]string{edge: edge, "": ""}}, {}, {Fields: map[string]string{}}},
			Labels:   map[string]bool{edge: true, "b": false, "a": true},
			Fields:   map[string]string{"z": edge, "A": "", edge: "x"},
			Numbers: map[string]float64{"zero": 0, "neg0": math.Copysign(0, -1), "tiny": 1e-7, "small": 1e-6,
				"big": 1e21, "below": 999999999999999999999, "max": math.MaxFloat64, "min": math.SmallestNonzeroFloat64,
				"neg": -0.000001234, "third": 1.0 / 3, "int": 650000},
		}},
		&Doc{},
		&Doc{Truth: &Truth{}},
		&Doc{Truth: &Truth{Topics: []string{}, Mentions: []Mention{}, Labels: map[string]bool{}, Fields: map[string]string{}, Numbers: map[string]float64{}}},
	)
	var w jsonWriter
	for i, d := range docs {
		got, ok := w.appendDoc(nil, d)
		want, err := encodeJSON(nil, d)
		if !ok || err != nil {
			t.Fatalf("doc %d: appender ok=%v, encoding/json error %v", i, ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("doc %d: appender writes\n%q\nencoding/json\n%q", i, got, want)
		}
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := &Doc{Truth: &Truth{Numbers: map[string]float64{"x": x}}}
		if _, ok := w.appendDoc(nil, d); ok {
			t.Errorf("appender writes %v", x)
		}
		if _, err := encodeJSON(nil, d); err == nil {
			t.Errorf("encoding/json writes %v", x)
		}
		_, err := WriteNDJSON(&bytes.Buffer{}, NewSliceGenerator(DomainSupport, []*Doc{d}))
		if err == nil || !strings.Contains(err.Error(), "corpus: encode doc 0: unsupported value") {
			t.Errorf("WriteNDJSON of %v: error %v, want an unsupported value", x, err)
		}
	}
}

// TestAppendStringHTML: with HTML escaping on, the string escaper writes
// what json.Marshal writes, and with it off what a json.Encoder with
// SetEscapeHTML(false) writes.
func TestAppendStringHTML(t *testing.T) {
	for _, s := range []string{"", "plain", `<a href="x?a=1&b=2">&amp;</a>`, "\u2028\u2029 \x00\x1f\x7f \b\f\n\r\t \\ /",
		"bad \xff \xed\xa0\x80 \xf0\x9f \U0001F600 \ufffd \u00e9"} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s, true); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q, html) = %q, json.Marshal %q", s, got, want)
		}
		want, _ = encodeJSON(nil, s)
		if got := AppendString(nil, s, false); !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("AppendString(%q) = %q, encoding/json %q", s, got, want)
		}
	}
}
