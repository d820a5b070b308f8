package corpus

import (
	"encoding/base64"
	"strconv"

	"repro/internal/record"
	"repro/internal/schema"
)

// Wire records: records with their truth as JSON, the form in which the
// cluster wire carries them. An array of wire records is
//
//	[{"values":{...},"truth":{...},"source":"..."},...]
//
// with a record's truth left out when it has none and its source when it
// is empty: what encoding/json writes for a []WireRecord, with HTML
// escaping off. RecordEncoder writes each record with the corpus writer's
// appenders, and RecordsDecoder reads arrays of them with the corpus line
// decoder, so one encoder and one decoder own the truth's JSON on disk
// and on the wire. What frames the records is the caller's. The decoder
// declines what it does not cover, and the caller falls back to
// encoding/json, which stays the reference.

// WireRecord is one record as JSON: the schema field values, the hidden
// ground-truth annotation (LLM operators downstream of the wire need it
// to stay deterministic), and the source label.
type WireRecord struct {
	Values map[string]any `json:"values"`
	Truth  *Truth         `json:"truth,omitempty"`
	Source string         `json:"source,omitempty"`
}

// recordKeys are WireRecord's keys, for field.
var recordKeys = []string{"values", "truth", "source"}

// RecordEncoder appends wire records. The zero value is ready to use; an
// encoder keeps scratch between calls and is not safe for concurrent use.
type RecordEncoder struct {
	w jsonWriter
	// order is schema's slots, sorted by field name.
	schema *schema.Schema
	order  []int
}

// Append appends r to dst as a wire record. It reports false when a value
// is NaN or infinite, which JSON cannot carry, or of a Go type record.New
// does not store. A record holds a value for every field of its schema
// and no other (record.New), so its values object is the schema's fields
// in name order.
func (e *RecordEncoder) Append(dst []byte, r *record.Record) ([]byte, bool) {
	if s := r.Schema(); s != e.schema {
		e.schema, e.order = s, s.AppendSlotsByName(nil)
	}
	dst = append(dst, `{"values":{`...)
	for i, slot := range e.order {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(AppendString(dst, e.schema.FieldAt(slot).Name, false), ':')
		var ok bool
		if dst, ok = appendValue(dst, r.At(slot)); !ok {
			return dst, false
		}
	}
	dst = append(dst, '}')
	if t := RecordTruth(r); t != nil {
		var ok bool
		if dst, ok = e.w.appendTruth(append(dst, `,"truth":`...), t); !ok {
			return dst, false
		}
	}
	if src := r.Source(); src != "" {
		dst = AppendString(append(dst, `,"source":`...), src, false)
	}
	return append(dst, '}'), true
}

// RecordsDecoder decodes arrays of wire records into records under a
// schema. Its fast path takes records made only of the keys values, truth
// and source, each at most once and spelled exactly. A values object may
// name each field of the schema at most once, with null or the JSON kind
// of the field's type: a string, an integer literal for an Int field, a
// number for a Float field, true or false, an array of strings for a
// string list, and base64 in a string for bytes. A truth takes the corpus
// line's fast path: null, or byte for byte what RecordEncoder writes.
// Anything else (a wrong kind, an unknown field, a duplicate key, a null
// record, a truth in other bytes) is declined. A record's truth is kept
// packed (see Truth) as a copy of its bytes, as a scanned record's is,
// and RecordEncoder copies a packed truth's string as it is. The zero
// value is ready to use; a decoder keeps scratch between calls and is not
// safe for concurrent use.
type RecordsDecoder struct {
	d docDecoder
	// order is schema's slots, sorted by field name; seen marks the slots
	// the record being decoded has named, and next is where in order to
	// look first.
	schema *schema.Schema
	order  []int
	seen   []bool
	next   int

	items []valueItem
	// vals are the slots of the record being decoded, handed over to it.
	vals   []any
	source string
}

// valueItem is one parsed member of a values object: the slot of the
// field it names and its value, as a string or number literal in val, a
// bool in flag, or a string list's elements.
type valueItem struct {
	field int
	null  bool
	flag  bool
	val   span
	elems span
}

// Decode decodes raw, one array of wire records and nothing else but
// whitespace, under s and appends its records to recs. It reports false,
// with recs as given, for anything outside the fast path's shape, and the
// caller then decodes it with encoding/json. Records built before a
// decline are dropped; they have only used up record IDs.
func (c *RecordsDecoder) Decode(raw []byte, s *schema.Schema, recs []*record.Record) ([]*record.Record, bool) {
	if s != c.schema {
		c.schema, c.order = s, s.AppendSlotsByName(nil)
		c.seen = make([]bool, len(c.order))
	}
	n := len(recs)
	c.d.reset(raw, 0)
	recs, ok := c.records(recs)
	ok = ok && c.d.end()
	c.d.raw = nil
	c.vals = nil
	if !ok {
		clear(recs[n:])
		return recs[:n], false
	}
	return recs, true
}

func (c *RecordsDecoder) records(recs []*record.Record) ([]*record.Record, bool) {
	d := &c.d
	if !d.lit("[") {
		return recs, false
	}
	for more := !d.lit("]"); more; {
		r, ok := c.record()
		if !ok {
			return recs, false
		}
		recs = append(recs, r)
		if more, ok = d.sep("]"); !ok {
			return recs, false
		}
	}
	return recs, true
}

// record decodes one wire record. Its value strings become substrings of
// one string, its truth is packed as a copy of its bytes, and a source
// equal to the last one shares its string.
func (c *RecordsDecoder) record() (*record.Record, bool) {
	d := &c.d
	d.reset(d.raw, d.pos)
	c.vals = make([]any, c.schema.Len())
	var src span
	var seen uint8
	if !d.lit("{") {
		return nil, false
	}
	for more := !d.lit("}"); more; {
		var ok bool
		switch d.field(recordKeys, &seen) {
		case "values":
			ok = c.values()
		case "truth":
			ok = d.truthValue()
		case "source":
			src, ok = d.str()
		}
		if !ok {
			return nil, false
		}
		if more, ok = d.sep("}"); !ok {
			return nil, false
		}
	}
	t := d.packed()
	r, err := record.NewSlots(c.schema, c.vals)
	c.vals = nil
	if err != nil {
		return nil, false
	}
	if s := d.buf[src.lo:src.hi]; string(s) != c.source {
		c.source = string(s)
	}
	r.SetSource(c.source)
	if t != nil {
		r.SetTruth(t)
	}
	return r, true
}

// values parses a values object into c.vals.
func (c *RecordsDecoder) values() bool {
	d := &c.d
	if !d.lit("{") {
		return false
	}
	clear(c.seen)
	c.items = c.items[:0]
	lo := len(d.buf)
	for more := !d.lit("}"); more; {
		k, ok := d.key()
		if !ok {
			return false
		}
		it := valueItem{field: c.fieldIndex(d.buf[k.lo:k.hi])}
		d.buf = d.buf[:k.lo]
		if it.field < 0 {
			return false
		}
		if it.null = d.lit("null"); !it.null {
			switch c.schema.FieldAt(it.field).Type {
			case schema.String, schema.Bytes:
				it.val, ok = d.str()
			case schema.Int, schema.Float:
				it.val, ok = d.number()
			case schema.Bool:
				it.flag = d.lit("true")
				ok = it.flag || d.lit("false")
			case schema.StringList:
				it.elems, ok = d.strings()
			default:
				ok = false
			}
			if !ok {
				return false
			}
		}
		c.items = append(c.items, it)
		if more, ok = d.sep("}"); !ok {
			return false
		}
	}
	s := string(d.buf[lo:])
	for _, it := range c.items {
		if it.null {
			continue // record.NewSlots gives a nil slot its field's zero value
		}
		var v any
		switch c.schema.FieldAt(it.field).Type {
		case schema.String:
			v = it.val.of(s, lo)
		case schema.Int:
			n, err := strconv.ParseInt(it.val.of(s, lo), 10, 64)
			if err != nil {
				return false
			}
			v = n
		case schema.Float:
			x, err := strconv.ParseFloat(it.val.of(s, lo), 64)
			if err != nil {
				return false
			}
			v = x
		case schema.Bool:
			v = it.flag
		case schema.StringList:
			l := make([]string, 0, it.elems.hi-it.elems.lo)
			for _, e := range d.entries[it.elems.lo:it.elems.hi] {
				l = append(l, e.of(s, lo))
			}
			v = l
		case schema.Bytes:
			b, err := base64.StdEncoding.DecodeString(it.val.of(s, lo))
			if err != nil {
				return false
			}
			v = b
		}
		c.vals[it.field] = v
	}
	return true
}

// fieldIndex returns the slot of the field named key, or -1 if there is
// none or the record named it already. Fields come in name order, so the
// search starts after the last field found.
func (c *RecordsDecoder) fieldIndex(key []byte) int {
	for j := range c.order {
		k := (c.next + j) % len(c.order)
		slot := c.order[k]
		if c.schema.FieldAt(slot).Name == string(key) {
			if c.seen[slot] {
				return -1
			}
			c.seen[slot], c.next = true, k+1
			return slot
		}
	}
	return -1
}
