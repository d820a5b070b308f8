package corpus

import (
	"encoding/json"
	"strconv"
	"strings"

	"repro/internal/record"
)

// Packed truths: a record scanned from an NDJSON corpus (DocReader's
// NextRecord), loaded from a folder with a truth sidecar (DecodeTruths)
// or decoded off the cluster wire (RecordsDecoder) holds its truth as one
// immutable string, the truth exactly as the corpus writer renders it,
// with Truth's exported parts left nil. A scan keeps every record it
// passes on until the query ends, and five maps per record were most of
// what it kept. The oracle, the metrics and the optimizer read
// either form through a TruthView, which answers by name without building
// a map; TruthOf builds the maps of a packed truth afresh on each call.
//
// A packed string is canonical JSON: no whitespace, members in Truth's
// field order, map keys sorted and unique, strings escaped by
// AppendString and numbers written by AppendFloat. The readers below
// rely on that shape and check nothing else; only the corpus line
// decoder makes packed truths, by copying input it has checked is in
// that shape, and TruthView.truth is the one builder that turns one into
// maps (for TruthOf, and for the Docs the decoder gives).

// Packed returns t's packed rendering and true, or false when t holds
// its parts in maps and slices or is nil.
func (t *Truth) Packed() (string, bool) {
	if t == nil {
		return "", false
	}
	return t.packed, t.packed != ""
}

// Canonical returns t as the corpus writer renders it, what WriteNDJSON
// writes for it on a corpus line: a packed truth's string as is. It
// reports false when a number is NaN or infinite, which JSON cannot
// carry. Equal truths render equally in either form.
func (t *Truth) Canonical() (string, bool) {
	if p, ok := t.Packed(); ok {
		return p, true
	}
	var w jsonWriter
	b, ok := w.appendTruth(nil, t)
	return string(b), ok
}

// MarshalJSON writes t as Canonical renders it, which for a truth with
// maps is what encoding/json writes for its exported fields: without it,
// a packed truth, whose string is unexported, would marshal as {}.
func (t *Truth) MarshalJSON() ([]byte, error) {
	var w jsonWriter
	if b, ok := w.appendTruth(nil, t); ok {
		return b, nil
	}
	// A NaN or an infinity: encoding/json's error for it.
	type fields Truth // Truth without this method
	return json.Marshal((*fields)(t))
}

// RecordTruth returns the truth r holds, in whichever form, without
// copying it (nil when r has none). Read it through View; TruthOf is the
// same truth with maps.
func RecordTruth(r *record.Record) *Truth {
	t, _ := r.Truth().(*Truth)
	return t
}

// TruthView reads a truth of either form by name, without building a
// map: the parts of a packed truth are located once, when the view is
// made, and read where they lie. Strings it returns are substrings of
// the packed string unless they hold an escape. A view of a nil truth
// reads as empty. Iteration order is sorted keys for a packed truth and
// map order for the other form, so callers must not depend on it.
type TruthView struct {
	t *Truth
	// topics, mentions, labels, fields and numbers are the JSON values of
	// a packed truth's members, "" when the member is absent.
	topics, mentions, labels, fields, numbers string
}

// View returns a view of t.
func (t *Truth) View() TruthView {
	v := TruthView{t: t}
	if t == nil || t.packed == "" {
		return v
	}
	eachMember(t.packed, func(key, val string) bool {
		switch key {
		case `"topics"`:
			v.topics = val
		case `"mentions"`:
			v.mentions = val
		case `"labels"`:
			v.labels = val
		case `"fields"`:
			v.fields = val
		case `"numbers"`:
			v.numbers = val
		}
		return true
	})
	return v
}

// packed reports whether v reads a packed truth.
func (v TruthView) packed() bool { return v.t != nil && v.t.packed != "" }

// HasTopic reports whether the truth is about a topic whose name shares
// terms with the query (case-insensitive substring either way).
func (v TruthView) HasTopic(query string) bool {
	q := strings.ToLower(strings.TrimSpace(query))
	match := func(topic string) bool {
		tl := strings.ToLower(topic)
		return strings.Contains(q, tl) || strings.Contains(tl, q)
	}
	switch {
	case v.packed():
		found := false
		eachElem(v.topics, func(raw string) bool {
			found = match(unquote(raw))
			return !found
		})
		return found
	case v.t != nil:
		for _, topic := range v.t.Topics {
			if match(topic) {
				return true
			}
		}
	}
	return false
}

// EachLabel calls fn with each label and its value until fn returns
// false.
func (v TruthView) EachLabel(fn func(name string, val bool) bool) {
	switch {
	case v.packed():
		eachMember(v.labels, func(key, val string) bool { return fn(unquote(key), val == "true") })
	case v.t != nil:
		for name, val := range v.t.Labels {
			if !fn(name, val) {
				return
			}
		}
	}
}

// Fields returns a view of the truth's scalar string fields.
func (v TruthView) Fields() FieldsView {
	switch {
	case v.packed():
		return FieldsView{obj: v.fields}
	case v.t != nil:
		return FieldsView{m: v.t.Fields}
	}
	return FieldsView{}
}

// Number returns the number named name.
func (v TruthView) Number(name string) (float64, bool) {
	if !v.packed() {
		if v.t == nil {
			return 0, false
		}
		x, ok := v.t.Numbers[name]
		return x, ok
	}
	var x float64
	found := false
	eachMember(v.numbers, func(key, val string) bool {
		if found = keyIs(key, name); found {
			x = number(val)
		}
		return !found
	})
	return x, found
}

// EachNumber calls fn with each number and its name until fn returns
// false.
func (v TruthView) EachNumber(fn func(name string, x float64) bool) {
	switch {
	case v.packed():
		eachMember(v.numbers, func(key, val string) bool { return fn(unquote(key), number(val)) })
	case v.t != nil:
		for name, x := range v.t.Numbers {
			if !fn(name, x) {
				return
			}
		}
	}
}

// EachMention calls fn with each mention's kind and fields, in order,
// until fn returns false.
func (v TruthView) EachMention(fn func(kind string, fields FieldsView) bool) {
	switch {
	case v.packed():
		eachElem(v.mentions, func(raw string) bool {
			kind, fields := mentionParts(raw)
			return fn(kind, fields)
		})
	case v.t != nil:
		for _, m := range v.t.Mentions {
			if !fn(m.Kind, FieldsView{m: m.Fields}) {
				return
			}
		}
	}
}

// mentionParts splits a packed mention into its kind and fields.
func mentionParts(raw string) (kind string, fields FieldsView) {
	eachMember(raw, func(key, val string) bool {
		if key == `"kind"` {
			kind = unquote(val)
		} else {
			fields.obj = val
		}
		return true
	})
	return kind, fields
}

// truth returns the truth the view reads with its parts in maps and
// slices: a packed truth's, built afresh; another's, as it is.
func (v TruthView) truth() *Truth {
	if !v.packed() {
		return v.t
	}
	t := &Truth{}
	eachElem(v.topics, func(raw string) bool {
		t.Topics = append(t.Topics, unquote(raw))
		return true
	})
	eachElem(v.mentions, func(raw string) bool {
		kind, fields := mentionParts(raw)
		t.Mentions = append(t.Mentions, Mention{Kind: kind, Fields: fields.toMap()})
		return true
	})
	if v.labels != "" {
		t.Labels = map[string]bool{}
		v.EachLabel(func(name string, val bool) bool {
			t.Labels[name] = val
			return true
		})
	}
	t.Fields = v.Fields().toMap()
	if v.numbers != "" {
		t.Numbers = map[string]float64{}
		v.EachNumber(func(name string, x float64) bool {
			t.Numbers[name] = x
			return true
		})
	}
	return t
}

// FieldsView reads a string map of a truth of either form: the truth's
// fields or a mention's.
type FieldsView struct {
	m map[string]string
	// obj is a packed map's JSON object, or "null" for a nil map; "" reads
	// m.
	obj string
}

// Get returns the value of key.
func (f FieldsView) Get(key string) (string, bool) {
	if f.obj == "" {
		v, ok := f.m[key]
		return v, ok
	}
	var out string
	found := false
	eachMember(f.obj, func(k, val string) bool {
		if found = keyIs(k, key); found {
			out = unquote(val)
		}
		return !found
	})
	return out, found
}

// Each calls fn with each key and value until fn returns false.
func (f FieldsView) Each(fn func(key, val string) bool) {
	if f.obj == "" {
		for k, v := range f.m {
			if !fn(k, v) {
				return
			}
		}
		return
	}
	eachMember(f.obj, func(k, val string) bool { return fn(unquote(k), unquote(val)) })
}

// toMap returns the map f reads: a packed one built afresh, nil for
// null.
func (f FieldsView) toMap() map[string]string {
	if f.obj == "" {
		return f.m
	}
	if f.obj == "null" {
		return nil
	}
	m := map[string]string{}
	f.Each(func(k, v string) bool {
		m[k] = v
		return true
	})
	return m
}

// eachMember calls fn with the quoted key and the value of each member of
// the packed object obj, until fn returns false. Anything but an object
// ("", "null") has no members.
func eachMember(obj string, fn func(key, val string) bool) {
	if len(obj) < 2 || obj[0] != '{' {
		return
	}
	for s := obj[1 : len(obj)-1]; s != ""; {
		k := strLen(s)
		key := s[:k]
		s = s[k+1:] // the colon
		n := valueLen(s)
		if !fn(key, s[:n]) {
			return
		}
		s = strings.TrimPrefix(s[n:], ",")
	}
}

// eachElem calls fn with each element of the packed array arr, until fn
// returns false. Anything but an array ("") has no elements.
func eachElem(arr string, fn func(raw string) bool) {
	if len(arr) < 2 || arr[0] != '[' {
		return
	}
	for s := arr[1 : len(arr)-1]; s != ""; {
		n := valueLen(s)
		if !fn(s[:n]) {
			return
		}
		s = strings.TrimPrefix(s[n:], ",")
	}
}

// strLen returns the length of the JSON string s starts with, quotes
// included.
func strLen(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return len(s)
}

// valueLen returns the length of the JSON value s starts with, which the
// end of s or a comma ends.
func valueLen(s string) int {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			i += strLen(s[i:]) - 1
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case ',':
			if depth == 0 {
				return i
			}
		}
	}
	return len(s)
}

// unquote returns the text of the JSON string raw: a substring of it
// unless it holds an escape. AppendString writes only escapes that Go
// string literals share (\", \\, \b, \f, \n, \r, \t and \u), so
// strconv.Unquote reads them.
func unquote(raw string) string {
	if strings.IndexByte(raw, '\\') < 0 {
		return raw[1 : len(raw)-1]
	}
	s, _ := strconv.Unquote(raw)
	return s
}

// keyIs reports whether the JSON string raw holds name.
func keyIs(raw, name string) bool {
	if strings.IndexByte(raw, '\\') < 0 {
		return len(raw) == len(name)+2 && raw[1:len(raw)-1] == name
	}
	return unquote(raw) == name
}

// number parses a packed number, which AppendFloat wrote, so it parses.
func number(lit string) float64 {
	x, _ := strconv.ParseFloat(lit, 64)
	return x
}
