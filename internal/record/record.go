// Package record implements Palimpzest's data records: dynamically-typed
// tuples conforming to a schema, with lineage pointers back to the parent
// record(s) they were derived from. Lineage is what lets the execution
// engine attribute extracted outputs (e.g. a dataset mention) to the source
// paper, and lets one-to-many Convert operators fan out while retaining
// provenance (paper §3: the ClinicalData extraction is ONE_TO_MANY).
package record

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/schema"
)

var nextID atomic.Int64

// Record is one data item flowing through a pipeline. Records are created
// with New and should be treated as immutable once handed to an operator;
// derive new records with Derive or Project instead of mutating.
type Record struct {
	id     int64
	schema *schema.Schema
	values map[string]any
	// parents are the IDs of the records this one was derived from.
	parents []int64
	// source names the dataset or file this record originated from.
	source string
	// truth carries hidden ground-truth annotations attached by the
	// synthetic corpus generators. The simulated LLM reads it through the
	// oracle interface; real operators never touch it.
	truth map[string]any
}

// New creates a record of the given schema. Missing fields default to the
// zero value of their type; unknown field names in values are an error.
func New(s *schema.Schema, values map[string]any) (*Record, error) {
	if s == nil {
		return nil, fmt.Errorf("record: nil schema")
	}
	r := &Record{
		id:     nextID.Add(1),
		schema: s,
		values: make(map[string]any, s.Len()),
	}
	for name, v := range values {
		f, ok := s.Field(name)
		if !ok {
			return nil, fmt.Errorf("record: schema %s has no field %q", s.Name(), name)
		}
		cv, err := coerce(f.Type, v)
		if err != nil {
			return nil, fmt.Errorf("record: field %q: %w", name, err)
		}
		r.values[name] = cv
	}
	for i := 0; i < s.Len(); i++ {
		f := s.FieldAt(i)
		if _, ok := r.values[f.Name]; !ok {
			r.values[f.Name] = f.Type.Zero()
		}
	}
	return r, nil
}

// MustNew is New that panics on error, for tests and generators.
func MustNew(s *schema.Schema, values map[string]any) *Record {
	r, err := New(s, values)
	if err != nil {
		panic(err)
	}
	return r
}

// coerce converts common alternative Go representations into the canonical
// one for a field type (int -> int64, float32 -> float64, numeric strings
// for Int/Float fields produced by LLM extraction).
func coerce(t schema.FieldType, v any) (any, error) {
	if v == nil {
		return t.Zero(), nil
	}
	switch t {
	case schema.Int:
		switch x := v.(type) {
		case int:
			return int64(x), nil
		case int64:
			return x, nil
		case float64:
			return int64(x), nil
		case string:
			n, err := strconv.ParseInt(strings.TrimSpace(x), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cannot parse %q as int", x)
			}
			return n, nil
		}
	case schema.Float:
		switch x := v.(type) {
		case float64:
			return x, nil
		case float32:
			return float64(x), nil
		case int:
			return float64(x), nil
		case int64:
			return float64(x), nil
		case string:
			f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
			if err != nil {
				return nil, fmt.Errorf("cannot parse %q as float", x)
			}
			return f, nil
		}
	case schema.Bool:
		switch x := v.(type) {
		case bool:
			return x, nil
		case string:
			b, err := strconv.ParseBool(strings.TrimSpace(strings.ToLower(x)))
			if err != nil {
				return nil, fmt.Errorf("cannot parse %q as bool", x)
			}
			return b, nil
		}
	case schema.String:
		switch x := v.(type) {
		case string:
			return x, nil
		case fmt.Stringer:
			return x.String(), nil
		case int:
			return strconv.Itoa(x), nil
		case int64:
			return strconv.FormatInt(x, 10), nil
		case float64:
			return strconv.FormatFloat(x, 'g', -1, 64), nil
		case bool:
			return strconv.FormatBool(x), nil
		}
	case schema.StringList:
		switch x := v.(type) {
		case []string:
			return x, nil
		case []any:
			out := make([]string, len(x))
			for i, e := range x {
				s, ok := e.(string)
				if !ok {
					return nil, fmt.Errorf("list element %d is %T, not string", i, e)
				}
				out[i] = s
			}
			return out, nil
		case string:
			return []string{x}, nil
		}
	case schema.Bytes:
		switch x := v.(type) {
		case []byte:
			return x, nil
		case string:
			return []byte(x), nil
		}
	}
	if t.CheckValue(v) {
		return v, nil
	}
	return nil, fmt.Errorf("value %v (%T) not assignable to %s", v, v, t)
}

// ID returns the record's unique id.
func (r *Record) ID() int64 { return r.id }

// Schema returns the record's schema.
func (r *Record) Schema() *schema.Schema { return r.schema }

// Source returns the dataset/file name the record originated from.
func (r *Record) Source() string { return r.source }

// SetSource records the record's origin; used by data sources at scan time.
func (r *Record) SetSource(src string) { r.source = src }

// Parents returns the ids of the records this one was derived from.
func (r *Record) Parents() []int64 {
	out := make([]int64, len(r.parents))
	copy(out, r.parents)
	return out
}

// Get returns the value of the named field.
func (r *Record) Get(name string) (any, bool) {
	v, ok := r.values[name]
	return v, ok
}

// GetString returns the string form of the named field ("" when absent).
func (r *Record) GetString(name string) string {
	var buf [64]byte
	s, b := fieldText(r.values[name], buf[:0])
	if len(b) > 0 {
		return string(b)
	}
	return s
}

// GetInt returns the named field as int64 (0 when absent or non-numeric).
func (r *Record) GetInt(name string) int64 {
	switch x := r.values[name].(type) {
	case int64:
		return x
	case float64:
		return int64(x)
	default:
		return 0
	}
}

// GetFloat returns the named field as float64 (0 when absent/non-numeric).
func (r *Record) GetFloat(name string) float64 {
	switch x := r.values[name].(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	default:
		return 0
	}
}

// GetBool returns the named field as bool (false when absent).
func (r *Record) GetBool(name string) bool {
	b, _ := r.values[name].(bool)
	return b
}

// Set assigns a field value, coercing to the schema's declared type.
func (r *Record) Set(name string, v any) error {
	f, ok := r.schema.Field(name)
	if !ok {
		return fmt.Errorf("record: schema %s has no field %q", r.schema.Name(), name)
	}
	cv, err := coerce(f.Type, v)
	if err != nil {
		return fmt.Errorf("record: field %q: %w", name, err)
	}
	r.values[name] = cv
	return nil
}

// Text concatenates all string-ish field values; this is the "document
// text" the simulated LLM and embedding models see for a record. It is
// built in one allocation and not kept: records registered in memory live
// as long as the server, so caching the text would double their footprint.
func (r *Record) Text() string {
	var buf [64]byte
	n := 0
	for i := 0; i < r.schema.Len(); i++ {
		s, b := fieldText(r.values[r.schema.FieldAt(i).Name], buf[:0])
		if m := len(s) + len(b); m > 0 {
			if n > 0 {
				n++
			}
			n += m
		}
	}
	if n == 0 {
		return ""
	}
	var t strings.Builder
	t.Grow(n)
	for i := 0; i < r.schema.Len(); i++ {
		s, b := fieldText(r.values[r.schema.FieldAt(i).Name], buf[:0])
		if len(s)+len(b) == 0 {
			continue
		}
		if t.Len() > 0 {
			t.WriteByte('\n')
		}
		t.WriteString(s)
		t.Write(b)
	}
	return t.String()
}

// Digest is the 64-bit FNV-1a hash of Text(), fed field by field so that
// no text is built. It identifies a record by content, not by ID (IDs
// depend on allocation order): the simulated LLM keys its noise draws and
// its response cache on it.
func (r *Record) Digest() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	var buf [64]byte
	h := uint64(offset64)
	wrote := false
	for i := 0; i < r.schema.Len(); i++ {
		s, b := fieldText(r.values[r.schema.FieldAt(i).Name], buf[:0])
		if len(s)+len(b) == 0 {
			continue
		}
		if wrote {
			h = (h ^ '\n') * prime64
		}
		wrote = true
		for j := 0; j < len(s); j++ {
			h = (h ^ uint64(s[j])) * prime64
		}
		for _, c := range b {
			h = (h ^ uint64(c)) * prime64
		}
	}
	return h
}

// fieldText renders a field value as text, as a string or as bytes (at
// most one non-empty): GetString, Text and Digest all read values through
// it. Strings and byte slices come back as they are; numbers and string
// lists are rendered into scratch, so the common types cost no allocation.
func fieldText(v any, scratch []byte) (string, []byte) {
	switch x := v.(type) {
	case nil:
		return "", nil
	case string:
		return x, nil
	case []byte:
		return "", x
	case []string:
		for i, e := range x {
			if i > 0 {
				scratch = append(scratch, ", "...)
			}
			scratch = append(scratch, e...)
		}
		return "", scratch
	case int64:
		return "", strconv.AppendInt(scratch, x, 10)
	case float64:
		return "", strconv.AppendFloat(scratch, x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x), nil
	default:
		return fmt.Sprintf("%v", x), nil
	}
}

// Derive creates a record of schema s derived from r: values are the given
// map, lineage points at r, and source/ground-truth annotations carry over.
func (r *Record) Derive(s *schema.Schema, values map[string]any) (*Record, error) {
	// Carry over any field of s that r already has and values does not set.
	merged := make(map[string]any, s.Len())
	for i := 0; i < s.Len(); i++ {
		name := s.FieldAt(i).Name
		if v, ok := r.values[name]; ok {
			merged[name] = v
		}
	}
	for k, v := range values {
		merged[k] = v
	}
	child, err := New(s, merged)
	if err != nil {
		return nil, err
	}
	child.parents = []int64{r.id}
	child.source = r.source
	child.truth = r.truth
	return child, nil
}

// Project returns a new record restricted to the projected schema.
func (r *Record) Project(names ...string) (*Record, error) {
	ps, err := r.schema.Project(names...)
	if err != nil {
		return nil, err
	}
	vals := make(map[string]any, len(names))
	for _, n := range names {
		vals[n] = r.values[n]
	}
	return r.Derive(ps, vals)
}

// Clone returns a deep-enough copy of the record with a fresh id and
// lineage pointing at the original.
func (r *Record) Clone() *Record {
	vals := make(map[string]any, len(r.values))
	for k, v := range r.values {
		vals[k] = v
	}
	c := &Record{
		id:      nextID.Add(1),
		schema:  r.schema,
		values:  vals,
		parents: []int64{r.id},
		source:  r.source,
		truth:   r.truth,
	}
	return c
}

// SetTruth attaches a hidden ground-truth annotation. Only the synthetic
// corpus generators call this.
func (r *Record) SetTruth(key string, v any) {
	if r.truth == nil {
		r.truth = map[string]any{}
	}
	r.truth[key] = v
}

// Truth reads a hidden ground-truth annotation. Only the simulated LLM
// oracle and the metrics package call this.
func (r *Record) Truth(key string) (any, bool) {
	v, ok := r.truth[key]
	return v, ok
}

// String renders the record compactly for logs and chat output.
func (r *Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s#%d{", r.schema.Name(), r.id)
	for i, f := range r.schema.Fields() {
		if i > 0 {
			b.WriteString(", ")
		}
		v := r.GetString(f.Name)
		if len(v) > 40 {
			v = v[:40] + "…"
		}
		fmt.Fprintf(&b, "%s=%q", f.Name, v)
	}
	b.WriteString("}")
	return b.String()
}

// Values returns a copy of the record's field values keyed by field name.
func (r *Record) Values() map[string]any {
	out := make(map[string]any, len(r.values))
	for k, v := range r.values {
		out[k] = v
	}
	return out
}
