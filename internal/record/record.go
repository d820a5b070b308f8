// Package record implements Palimpzest's data records: dynamically-typed
// tuples conforming to a schema, with lineage pointers back to the parent
// record(s) they were derived from. Lineage is what lets the execution
// engine attribute extracted outputs (e.g. a dataset mention) to the source
// paper, and lets one-to-many Convert operators fan out while retaining
// provenance (paper §3: the ClinicalData extraction is ONE_TO_MANY).
package record

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/schema"
)

var nextID atomic.Int64

// Record is one data item flowing through a pipeline. Records are created
// with New or NewSlots and should be treated as immutable once handed to
// an operator; derive new records with Derive or Project instead of
// mutating.
type Record struct {
	id     int64
	schema *schema.Schema
	// values holds one value per schema field, in declaration order
	// (schema.Index gives a field's slot), each in its type's canonical
	// Go form.
	values []any
	// parents are the IDs of the records this one was derived from.
	parents []int64
	// source names the dataset or file this record originated from.
	source string
	// truth carries the hidden ground-truth annotation attached by the
	// synthetic corpus generators. The simulated LLM reads it through the
	// oracle interface; real operators never touch it.
	truth any
	// digest holds Digest once digestSet is true; both are atomics because
	// records are shared by concurrent queries. Set clears digestSet.
	digest    atomic.Uint64
	digestSet atomic.Bool
}

// New creates a record of the given schema. Missing fields default to the
// zero value of their type; unknown field names in values are an error.
func New(s *schema.Schema, values map[string]any) (*Record, error) {
	if s == nil {
		return nil, fmt.Errorf("record: nil schema")
	}
	vals := make([]any, s.Len())
	if err := assign(s, vals, values); err != nil {
		return nil, err
	}
	return NewSlots(s, vals)
}

// NewSlots creates a record of schema s from vals, one value per field in
// declaration order (a nil entry takes its field's zero value), coercing
// each as New does. The record keeps vals as its slots, so the caller
// hands it over and must not use it afterwards.
func NewSlots(s *schema.Schema, vals []any) (*Record, error) {
	if s == nil {
		return nil, fmt.Errorf("record: nil schema")
	}
	if len(vals) != s.Len() {
		return nil, fmt.Errorf("record: schema %s has %d fields, got %d values", s.Name(), s.Len(), len(vals))
	}
	for i, v := range vals {
		f := s.FieldAt(i)
		cv, err := coerce(f.Type, v)
		if err != nil {
			return nil, fmt.Errorf("record: field %q: %w", f.Name, err)
		}
		vals[i] = cv
	}
	return &Record{id: nextID.Add(1), schema: s, values: vals}, nil
}

// assign stores each of values in the slot of vals its name has in s.
func assign(s *schema.Schema, vals []any, values map[string]any) error {
	for name, v := range values {
		i, ok := s.Index(name)
		if !ok {
			return fmt.Errorf("record: schema %s has no field %q", s.Name(), name)
		}
		vals[i] = v
	}
	return nil
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
// for Int/Float fields produced by LLM extraction). A value already in
// its canonical type comes back as the interface it came in, so storing it
// boxes nothing again.
func coerce(t schema.FieldType, v any) (any, error) {
	if v == nil {
		return t.Zero(), nil
	}
	switch t {
	case schema.Int:
		switch x := v.(type) {
		case int64:
			return v, nil
		case int:
			return int64(x), nil
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
			return v, nil
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
			return v, nil
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
			return v, nil
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
			return v, nil
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
			return v, nil
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
	i, ok := r.schema.Index(name)
	if !ok {
		return nil, false
	}
	return r.values[i], true
}

// get returns the named field's value, nil when the schema has no such
// field.
func (r *Record) get(name string) any {
	v, _ := r.Get(name)
	return v
}

// At returns the value in slot i, the i'th field of the record's schema in
// declaration order.
func (r *Record) At(i int) any { return r.values[i] }

// GetString returns the string form of the named field ("" when absent).
func (r *Record) GetString(name string) string {
	var buf [64]byte
	s, b := fieldText(r.get(name), buf[:0])
	if len(b) > 0 {
		return string(b)
	}
	return s
}

// TextAt renders the value in slot i as GetString does, as a string or as
// bytes (at most one non-empty). Strings and byte slices come back as the
// record holds them; numbers and string lists are appended to scratch, so
// reading a field allocates only when scratch must grow. The bytes must
// not be modified.
func (r *Record) TextAt(i int, scratch []byte) (string, []byte) {
	return fieldText(r.values[i], scratch)
}

// GetInt returns the named field as int64 (0 when absent or non-numeric).
func (r *Record) GetInt(name string) int64 {
	switch x := r.get(name).(type) {
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
	switch x := r.get(name).(type) {
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
	b, _ := r.get(name).(bool)
	return b
}

// Set assigns a field value, coercing to the schema's declared type.
func (r *Record) Set(name string, v any) error {
	i, ok := r.schema.Index(name)
	if !ok {
		return fmt.Errorf("record: schema %s has no field %q", r.schema.Name(), name)
	}
	cv, err := coerce(r.schema.FieldAt(i).Type, v)
	if err != nil {
		return fmt.Errorf("record: field %q: %w", name, err)
	}
	r.values[i] = cv
	r.digestSet.Store(false)
	return nil
}

// Text concatenates all string-ish field values; this is the "document
// text" the simulated LLM and embedding models see for a record, priced
// by TextLen and keyed by Digest without building it. It is built in one
// allocation and not kept: records registered in memory live as long as
// the server, so caching the text would double their footprint.
func (r *Record) Text() string {
	n := r.TextLen()
	if n == 0 {
		return ""
	}
	var buf [64]byte
	var t strings.Builder
	t.Grow(n)
	for _, v := range r.values {
		s, b := fieldText(v, buf[:0])
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

// TextLen is len(r.Text()), measured without building the text.
func (r *Record) TextLen() int {
	var buf [64]byte
	n := 0
	for _, v := range r.values {
		s, b := fieldText(v, buf[:0])
		if m := len(s) + len(b); m > 0 {
			if n > 0 {
				n++
			}
			n += m
		}
	}
	return n
}

// Digest is the 64-bit FNV-1a hash of Text(). It identifies a record by
// content, not by ID (IDs depend on allocation order): the simulated LLM
// keys its noise draws, its response cache and its embedding memo on it.
// The first call hashes the values field by field, building no text, and
// the record keeps the result until Set changes a value.
func (r *Record) Digest() uint64 {
	if r.digestSet.Load() {
		return r.digest.Load()
	}
	const offset64, prime64 = 14695981039346656037, 1099511628211
	var buf [64]byte
	h := uint64(offset64)
	wrote := false
	for _, v := range r.values {
		s, b := fieldText(v, buf[:0])
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
	r.digest.Store(h)
	r.digestSet.Store(true)
	return h
}

// fieldText renders a field value as text, as a string or as bytes (at
// most one non-empty): GetString, TextAt, Text and Digest all read values
// through it. Strings and byte slices come back as they are; numbers and
// string lists are rendered into scratch, so the common types cost no
// allocation.
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
// A field of s that r has and values does not set carries over too,
// coerced to s's type for it.
func (r *Record) Derive(s *schema.Schema, values map[string]any) (*Record, error) {
	vals := make([]any, s.Len())
	for i := range vals {
		if j, ok := r.schema.Index(s.FieldAt(i).Name); ok {
			vals[i] = r.values[j]
		}
	}
	if err := assign(s, vals, values); err != nil {
		return nil, err
	}
	return r.child(s, vals)
}

// child builds a record of s over vals (see NewSlots) whose lineage,
// source and truth come from r.
func (r *Record) child(s *schema.Schema, vals []any) (*Record, error) {
	c, err := NewSlots(s, vals)
	if err != nil {
		return nil, err
	}
	c.parents = []int64{r.id}
	c.source = r.source
	c.truth = r.truth
	return c, nil
}

// Project returns a new record restricted to the projected schema.
func (r *Record) Project(names ...string) (*Record, error) {
	ps, err := r.schema.Project(names...)
	if err != nil {
		return nil, err
	}
	vals := make([]any, len(names))
	for i, n := range names {
		j, _ := r.schema.Index(n) // Project checked every name
		vals[i] = r.values[j]
	}
	return r.child(ps, vals)
}

// Clone returns a deep-enough copy of the record with a fresh id and
// lineage pointing at the original.
func (r *Record) Clone() *Record {
	return &Record{
		id:      nextID.Add(1),
		schema:  r.schema,
		values:  slices.Clone(r.values),
		parents: []int64{r.id},
		source:  r.source,
		truth:   r.truth,
	}
}

// SetTruth attaches the hidden ground-truth annotation. Only the synthetic
// corpus generators call this.
func (r *Record) SetTruth(v any) { r.truth = v }

// Truth reads the hidden ground-truth annotation (nil when there is none).
// Only the simulated LLM oracle and the metrics package call this.
func (r *Record) Truth() any { return r.truth }

// String renders the record compactly for logs and chat output.
func (r *Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s#%d{", r.schema.Name(), r.id)
	var buf [64]byte
	for i, v := range r.values {
		if i > 0 {
			b.WriteString(", ")
		}
		s, t := fieldText(v, buf[:0])
		if len(t) > 0 {
			s = string(t)
		}
		if len(s) > 40 {
			s = s[:40] + "…"
		}
		fmt.Fprintf(&b, "%s=%q", r.schema.FieldAt(i).Name, s)
	}
	b.WriteString("}")
	return b.String()
}

// Values returns a copy of the record's field values keyed by field name.
func (r *Record) Values() map[string]any {
	out := make(map[string]any, len(r.values))
	for i, v := range r.values {
		out[r.schema.FieldAt(i).Name] = v
	}
	return out
}
