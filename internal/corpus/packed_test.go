package corpus

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// packedOf returns t packed as a scan packs it: written on a corpus line
// by WriteNDJSON's appender and decoded by the record path, which must
// take the line and keep the truth packed.
func packedOf(t *testing.T, truth *Truth) *Truth {
	t.Helper()
	var w jsonWriter
	line, ok := w.appendDoc(nil, &Doc{Filename: "f", Text: "x", Truth: truth})
	if !ok {
		t.Fatal("the writer declines the truth")
	}
	var dec docDecoder
	_, _, p, ok := dec.line(line)
	if !ok {
		t.Fatalf("the record path declines %s", line)
	}
	if _, packed := p.Packed(); !packed {
		t.Fatalf("the record path keeps %s in maps", line)
	}
	return p
}

// escapingTruth returns a truth with every part filled, escapes and
// HTML-escaped characters in keys and values, and one mention without
// fields.
func escapingTruth() *Truth {
	return &Truth{
		Topics: []string{"plain topic", "quote \" and \\ and\nnewline", "line\u2028sep"},
		Mentions: []Mention{
			{Kind: "dataset", Fields: map[string]string{"name": "A \"q\"", "url": "http://x/y?a=1&b=<2>"}},
			{Kind: "bare", Fields: map[string]string{"k": "v"}},
			{Kind: "", Fields: map[string]string{}},
			{Kind: "fieldless"},
		},
		Labels:  map[string]bool{"urgent": true, "tab\tkey": false, "é": true},
		Fields:  map[string]string{"plain": "v", "esc\"key": "ctl \x01 \x7f", "": "empty key"},
		Numbers: map[string]float64{"n": -0.5, "big": 1e21, "tiny": 1e-7, "esc\nnum": 3},
	}
}

// viewAnswers collects everything a view answers about the names in keys.
func viewAnswers(v TruthView, keys []string) map[string]any {
	out := map[string]any{}
	labels := map[string]bool{}
	v.EachLabel(func(name string, val bool) bool {
		labels[name] = val
		return true
	})
	out["labels"] = labels
	nums := map[string]float64{}
	v.EachNumber(func(name string, x float64) bool {
		nums[name] = x
		return true
	})
	out["numbers"] = nums
	fields := map[string]string{}
	v.Fields().Each(func(k, val string) bool {
		fields[k] = val
		return true
	})
	out["fields"] = fields
	var mentions []any
	v.EachMention(func(kind string, f FieldsView) bool {
		name, ok := f.Get("name")
		mentions = append(mentions, kind, name, ok, f.toMap())
		return true
	})
	out["mentions"] = mentions
	for _, k := range keys {
		val, ok := v.Fields().Get(k)
		x, xok := v.Number(k)
		out["get "+k] = []any{val, ok, x, xok, v.HasTopic(k)}
	}
	return out
}

// TestTruthViewBothForms: a view answers the same for a truth with maps
// and for the truth packed, escapes in keys and values and a mention
// without fields (written as "fields":null) included, and TruthOf gives
// the maps back.
func TestTruthViewBothForms(t *testing.T) {
	full := escapingTruth()
	p := packedOf(t, full)
	keys := []string{"plain", "esc\"key", "", "n", "big", "tiny", "esc\nnum", "missing", "quote", "sep"}
	if got, want := viewAnswers(p.View(), keys), viewAnswers(full.View(), keys); !reflect.DeepEqual(got, want) {
		t.Fatalf("packed view answers\n%v\nthe view with maps\n%v", got, want)
	}
	if got := p.View().truth(); !reflect.DeepEqual(got, full) {
		t.Fatalf("packed truth reads back as\n%+v\nwant\n%+v", got, full)
	}
	if got, want := p.MentionsOfKind("dataset"), full.MentionsOfKind("dataset"); !reflect.DeepEqual(got, want) {
		t.Fatalf("MentionsOfKind: %v, want %v", got, want)
	}
	s, _ := full.Canonical()
	if ps, _ := p.Canonical(); ps != s {
		t.Fatalf("packed %s, writer %s", ps, s)
	}
	var empty Truth
	if got := viewAnswers(packedOf(t, &empty).View(), keys); !reflect.DeepEqual(got, viewAnswers(TruthView{}, keys)) {
		t.Fatalf("an empty packed truth answers %v", got)
	}
}

// TestTruthMarshalJSON: encoding/json writes a packed truth as it writes
// the same truth with maps, and that as it writes the exported fields,
// with HTML escaping on and off and indented as WriteSidecar indents.
func TestTruthMarshalJSON(t *testing.T) {
	type fields Truth // encoding/json's rendering, without MarshalJSON
	full := escapingTruth()
	p := packedOf(t, full)
	for _, escapeHTML := range []bool{true, false} {
		encode := func(v any) string {
			var b bytes.Buffer
			enc := json.NewEncoder(&b)
			enc.SetEscapeHTML(escapeHTML)
			enc.SetIndent("", "  ")
			if err := enc.Encode([]any{v}); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		want := encode((*fields)(full))
		if got := encode(full); got != want {
			t.Errorf("escapeHTML %v: the truth with maps marshals as\n%s\nwant\n%s", escapeHTML, got, want)
		}
		if got := encode(p); got != want {
			t.Errorf("escapeHTML %v: the packed truth marshals as\n%s\nwant\n%s", escapeHTML, got, want)
		}
	}
	if _, err := json.Marshal(&Truth{Numbers: map[string]float64{"x": math.NaN()}}); err == nil || !strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Errorf("a NaN number marshals with error %v", err)
	}
}
