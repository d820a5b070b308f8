package record

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

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
	p.SetTruth("relevant", true)
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
	if v, ok := c.Truth("relevant"); !ok || v != true {
		t.Errorf("truth not carried: %v %v", v, ok)
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
