package record

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/schema"
)

var paperSchema = schema.MustNew("PDFFile", "A PDF file.",
	schema.Field{Name: "filename", Type: schema.String},
	schema.Field{Name: "contents", Type: schema.String},
)

var clinicalSchema = schema.MustNew("ClinicalData", "Extracted dataset info.",
	schema.Field{Name: "filename", Type: schema.String},
	schema.Field{Name: "name", Type: schema.String},
	schema.Field{Name: "url", Type: schema.String},
)

func TestNewDefaultsMissingFields(t *testing.T) {
	r, err := New(paperSchema, map[string]any{"filename": "p1.pdf"})
	if err != nil {
		t.Fatal(err)
	}
	if r.GetString("contents") != "" {
		t.Errorf("contents default = %q", r.GetString("contents"))
	}
	if r.GetString("filename") != "p1.pdf" {
		t.Errorf("filename = %q", r.GetString("filename"))
	}
}

func TestNewRejectsUnknownField(t *testing.T) {
	if _, err := New(paperSchema, map[string]any{"nope": 1}); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestNewNilSchema(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("nil schema accepted")
	}
}

func TestIDsUnique(t *testing.T) {
	a := MustNew(paperSchema, nil)
	b := MustNew(paperSchema, nil)
	if a.ID() == b.ID() {
		t.Fatalf("duplicate ids %d", a.ID())
	}
}

func TestCoercions(t *testing.T) {
	s := schema.MustNew("T", "",
		schema.Field{Name: "i", Type: schema.Int},
		schema.Field{Name: "f", Type: schema.Float},
		schema.Field{Name: "b", Type: schema.Bool},
		schema.Field{Name: "s", Type: schema.String},
		schema.Field{Name: "l", Type: schema.StringList},
		schema.Field{Name: "y", Type: schema.Bytes},
	)
	r, err := New(s, map[string]any{
		"i": "42", "f": "2.5", "b": "true", "s": 7,
		"l": []any{"a", "b"}, "y": "bytes",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.GetInt("i") != 42 || r.GetFloat("f") != 2.5 || !r.GetBool("b") {
		t.Errorf("numeric coercions wrong: %v %v %v", r.GetInt("i"), r.GetFloat("f"), r.GetBool("b"))
	}
	if r.GetString("s") != "7" {
		t.Errorf("string coercion = %q", r.GetString("s"))
	}
	v, _ := r.Get("l")
	if !reflect.DeepEqual(v, []string{"a", "b"}) {
		t.Errorf("list coercion = %v", v)
	}
	y, _ := r.Get("y")
	if !reflect.DeepEqual(y, []byte("bytes")) {
		t.Errorf("bytes coercion = %v", y)
	}
}

func TestCoercionErrors(t *testing.T) {
	s := schema.MustNew("T", "", schema.Field{Name: "i", Type: schema.Int})
	if _, err := New(s, map[string]any{"i": "not-a-number"}); err == nil {
		t.Error("bad int accepted")
	}
	if _, err := New(s, map[string]any{"i": []string{"x"}}); err == nil {
		t.Error("slice as int accepted")
	}
}

func TestIntFloatCrossReads(t *testing.T) {
	s := schema.MustNew("T", "",
		schema.Field{Name: "i", Type: schema.Int},
		schema.Field{Name: "f", Type: schema.Float})
	r := MustNew(s, map[string]any{"i": 3, "f": 4.5})
	if r.GetFloat("i") != 3.0 {
		t.Errorf("GetFloat(int field) = %v", r.GetFloat("i"))
	}
	if r.GetInt("f") != 4 {
		t.Errorf("GetInt(float field) = %v", r.GetInt("f"))
	}
}

func TestSet(t *testing.T) {
	r := MustNew(paperSchema, nil)
	if err := r.Set("filename", "x.pdf"); err != nil {
		t.Fatal(err)
	}
	if r.GetString("filename") != "x.pdf" {
		t.Errorf("filename = %q", r.GetString("filename"))
	}
	if err := r.Set("bogus", 1); err == nil {
		t.Error("Set on unknown field accepted")
	}
}

func TestDeriveLineageAndCarryOver(t *testing.T) {
	p := MustNew(paperSchema, map[string]any{"filename": "p1.pdf", "contents": "text"})
	p.SetSource("sigmod-demo")
	p.SetTruth(true)
	c, err := p.Derive(clinicalSchema, map[string]any{"name": "TCGA-COAD", "url": "https://x"})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Parents(); len(got) != 1 || got[0] != p.ID() {
		t.Errorf("parents = %v, want [%d]", got, p.ID())
	}
	if c.Source() != "sigmod-demo" {
		t.Errorf("source = %q", c.Source())
	}
	// filename is shared between schemas and carries over.
	if c.GetString("filename") != "p1.pdf" {
		t.Errorf("carried filename = %q", c.GetString("filename"))
	}
	if v := c.Truth(); v != true {
		t.Errorf("truth not carried: %v", v)
	}
}

func TestProjectRecord(t *testing.T) {
	r := MustNew(clinicalSchema, map[string]any{"name": "D", "url": "u", "filename": "f"})
	p, err := r.Project("url")
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema().Len() != 1 || p.GetString("url") != "u" {
		t.Fatalf("projection wrong: %v", p)
	}
	if _, err := r.Project("missing"); err == nil {
		t.Error("projecting missing field accepted")
	}
}

func TestClone(t *testing.T) {
	r := MustNew(paperSchema, map[string]any{"filename": "a"})
	r.SetSource("src")
	c := r.Clone()
	if c.ID() == r.ID() {
		t.Error("clone shares id")
	}
	if got := c.Parents(); len(got) != 1 || got[0] != r.ID() {
		t.Errorf("clone parents = %v", got)
	}
	_ = c.Set("filename", "b")
	if r.GetString("filename") != "a" {
		t.Error("clone mutation leaked into original")
	}
}

func TestText(t *testing.T) {
	r := MustNew(paperSchema, map[string]any{"filename": "p.pdf", "contents": "colorectal cancer study"})
	txt := r.Text()
	if !strings.Contains(txt, "p.pdf") || !strings.Contains(txt, "colorectal") {
		t.Fatalf("Text = %q", txt)
	}
}

func TestStringTruncates(t *testing.T) {
	long := strings.Repeat("x", 100)
	r := MustNew(paperSchema, map[string]any{"contents": long})
	s := r.String()
	if len(s) > 200 {
		t.Errorf("String too long: %d bytes", len(s))
	}
	if !strings.Contains(s, "PDFFile#") {
		t.Errorf("String = %q", s)
	}
}

func TestValuesIsCopy(t *testing.T) {
	r := MustNew(paperSchema, map[string]any{"filename": "a"})
	v := r.Values()
	v["filename"] = "mutated"
	if r.GetString("filename") != "a" {
		t.Error("Values() exposed internal map")
	}
}

func TestStringFieldCoercionProperty(t *testing.T) {
	s := schema.MustNew("T", "", schema.Field{Name: "v", Type: schema.String})
	f := func(x string) bool {
		r, err := New(s, map[string]any{"v": x})
		return err == nil && r.GetString("v") == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntRoundTripProperty(t *testing.T) {
	s := schema.MustNew("T", "", schema.Field{Name: "v", Type: schema.Int})
	f := func(x int64) bool {
		r, err := New(s, map[string]any{"v": x})
		return err == nil && r.GetInt("v") == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refRecord is Record as it was before it held its values in slots: a
// map keyed by field name, rebuilt on every New, Derive, Project and
// Clone. FuzzRecordSlots checks Record against it.
type refRecord struct {
	schema *schema.Schema
	values map[string]any
}

func refNew(s *schema.Schema, values map[string]any) (*refRecord, error) {
	r := &refRecord{schema: s, values: make(map[string]any, s.Len())}
	for name, v := range values {
		f, ok := s.Field(name)
		if !ok {
			return nil, fmt.Errorf("record: schema %s has no field %q", s.Name(), name)
		}
		cv, err := refCoerce(f.Type, v)
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

func refCoerce(t schema.FieldType, v any) (any, error) {
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

func (r *refRecord) Get(name string) (any, bool) {
	v, ok := r.values[name]
	return v, ok
}

func (r *refRecord) GetString(name string) string {
	var buf [64]byte
	s, b := fieldText(r.values[name], buf[:0])
	if len(b) > 0 {
		return string(b)
	}
	return s
}

func (r *refRecord) Set(name string, v any) error {
	f, ok := r.schema.Field(name)
	if !ok {
		return fmt.Errorf("record: schema %s has no field %q", r.schema.Name(), name)
	}
	cv, err := refCoerce(f.Type, v)
	if err != nil {
		return fmt.Errorf("record: field %q: %w", name, err)
	}
	r.values[name] = cv
	return nil
}

func (r *refRecord) Text() string {
	var parts []string
	for i := 0; i < r.schema.Len(); i++ {
		if s := r.GetString(r.schema.FieldAt(i).Name); s != "" {
			parts = append(parts, s)
		}
	}
	return strings.Join(parts, "\n")
}

func (r *refRecord) Digest() uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(r.Text()))
	return h.Sum64()
}

func (r *refRecord) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s#{", r.schema.Name())
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

func (r *refRecord) Values() map[string]any {
	out := make(map[string]any, len(r.values))
	for k, v := range r.values {
		out[k] = v
	}
	return out
}

func (r *refRecord) Derive(s *schema.Schema, values map[string]any) (*refRecord, error) {
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
	return refNew(s, merged)
}

func (r *refRecord) Project(names ...string) (*refRecord, error) {
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

func (r *refRecord) Clone() *refRecord {
	return &refRecord{schema: r.schema, values: r.Values()}
}

// fuzzInput draws the choices of one FuzzRecordSlots case from its bytes;
// past their end every draw is 0.
type fuzzInput struct{ b []byte }

func (in *fuzzInput) next(n int) int {
	if len(in.b) == 0 {
		return 0
	}
	c := int(in.b[0])
	in.b = in.b[1:]
	return c % n
}

// fieldPool names the fields random schemas draw from, so that two
// schemas share some names, often with different types.
var fieldPool = []string{"a", "b", "c", "d", "e", "f", "g"}

// schema draws a schema of up to five distinct fields of any type.
func (in *fuzzInput) schema(name string) *schema.Schema {
	var fields []schema.Field
	for _, i := range in.perm(1 + in.next(5)) {
		fields = append(fields, schema.Field{Name: fieldPool[i], Type: schema.FieldType(in.next(6))})
	}
	return schema.MustNew(name, "", fields...)
}

// perm draws n distinct indices into fieldPool.
func (in *fuzzInput) perm(n int) []int {
	idx := make([]int, len(fieldPool))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		j := i + in.next(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:n]
}

// value draws a value for a field of type t: usually its canonical type,
// otherwise one that New coerces, or one it rejects.
func (in *fuzzInput) value(t schema.FieldType) any {
	words := []string{"", "x", "42", " -7 ", "2.5", "true", "FALSE", "héllo <b>", "1e3"}
	w := words[in.next(len(words))]
	n := in.next(200) - 100
	if in.next(2) == 0 {
		switch t {
		case schema.String:
			return w
		case schema.Int:
			return int64(n)
		case schema.Float:
			return float64(n) / 4
		case schema.Bool:
			return n%2 == 0
		case schema.StringList:
			return strings.Fields(w + " y z")[:in.next(3)]
		case schema.Bytes:
			return []byte(w)
		}
	}
	switch in.next(11) {
	case 0:
		return nil
	case 1:
		return w
	case 2:
		return n
	case 3:
		return int64(n)
	case 4:
		return float64(n) / 8
	case 5:
		return float32(n) / 2
	case 6:
		return n > 0
	case 7:
		return []string{w, "q"}
	case 8:
		if n%3 == 0 {
			return []any{w, n}
		}
		return []any{w, "q"}
	case 9:
		return []byte(w)
	default:
		return time.Duration(n) * time.Second
	}
}

// values draws a values map over s's fields, now and then naming a field
// s does not have.
func (in *fuzzInput) values(s *schema.Schema) map[string]any {
	vals := map[string]any{}
	for i := 0; i < s.Len(); i++ {
		if f := s.FieldAt(i); in.next(4) != 0 {
			vals[f.Name] = in.value(f.Type)
		}
	}
	if in.next(16) == 0 {
		vals["zz"] = "unknown"
	}
	return vals
}

// sameRecord fails unless r reads as ref does through every accessor.
func sameRecord(t *testing.T, what string, r *Record, ref *refRecord) {
	t.Helper()
	if !schema.Equal(r.Schema(), ref.schema) {
		t.Fatalf("%s: schema %v, want %v", what, r.Schema(), ref.schema)
	}
	for _, name := range append(fieldPool, "zz") {
		gv, gok := r.Get(name)
		wv, wok := ref.Get(name)
		if gok != wok || !reflect.DeepEqual(gv, wv) {
			t.Fatalf("%s: Get(%q) = %#v, %v; want %#v, %v", what, name, gv, gok, wv, wok)
		}
		if got, want := r.GetString(name), ref.GetString(name); got != want {
			t.Fatalf("%s: GetString(%q) = %q, want %q", what, name, got, want)
		}
	}
	if got, want := r.Text(), ref.Text(); got != want {
		t.Fatalf("%s: Text = %q, want %q", what, got, want)
	}
	if got, want := r.Digest(), ref.Digest(); got != want {
		t.Fatalf("%s: Digest = %x, want %x", what, got, want)
	}
	if got, want := r.Values(), ref.Values(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Values = %#v, want %#v", what, got, want)
	}
	if got, want := strings.Replace(r.String(), fmt.Sprintf("#%d{", r.ID()), "#{", 1), ref.String(); got != want {
		t.Fatalf("%s: String = %q, want %q", what, got, want)
	}
}

// FuzzRecordSlots checks the slot-indexed Record against refRecord, the
// map-based Record it replaced, over random schemas of all six field types
// and values New coerces or rejects: New, the accessors, Set, Clone,
// Derive and Project must agree on every value and every error.
func FuzzRecordSlots(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("slot-indexed records"))
	f.Add([]byte{4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add([]byte{255, 254, 253, 1, 1, 1, 0, 0, 0, 9, 9, 9, 3, 3, 3, 200, 100, 50, 25, 12, 6, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{b: data}
		s := in.schema("S")
		vals := in.values(s)
		r, err := New(s, vals)
		ref, refErr := refNew(s, vals)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("New(%v, %#v): error %v, want %v", s, vals, err, refErr)
		}
		if err != nil {
			return
		}
		sameRecord(t, "New", r, ref)

		c, cref := r.Clone(), ref.Clone()
		if c.ID() == r.ID() || !reflect.DeepEqual(c.Parents(), []int64{r.ID()}) {
			t.Fatalf("Clone: id %d, parents %v of record %d", c.ID(), c.Parents(), r.ID())
		}
		for i := 0; i < 3; i++ {
			name := fieldPool[in.next(len(fieldPool))]
			v := in.value(schema.FieldType(in.next(6)))
			if err, refErr := c.Set(name, v), cref.Set(name, v); (err == nil) != (refErr == nil) {
				t.Fatalf("Set(%q, %#v): error %v, want %v", name, v, err, refErr)
			}
		}
		sameRecord(t, "Clone+Set", c, cref)
		sameRecord(t, "New after its clone's Set", r, ref)

		ds := in.schema("D")
		dvals := in.values(ds)
		d, err := r.Derive(ds, dvals)
		dref, refErr := ref.Derive(ds, dvals)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Derive(%v, %#v): error %v, want %v", ds, dvals, err, refErr)
		}
		if err == nil {
			sameRecord(t, "Derive", d, dref)
			if !reflect.DeepEqual(d.Parents(), []int64{r.ID()}) {
				t.Fatalf("Derive: parents %v, want [%d]", d.Parents(), r.ID())
			}
		}

		var names []string
		for _, i := range in.perm(in.next(4)) {
			names = append(names, fieldPool[i])
		}
		p, err := r.Project(names...)
		pref, refErr := ref.Project(names...)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Project(%q): error %v, want %v", names, err, refErr)
		}
		if err == nil {
			sameRecord(t, "Project", p, pref)
		}
	})
}
