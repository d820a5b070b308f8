package schema

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func clinical(t *testing.T) *Schema {
	t.Helper()
	s, err := New("ClinicalData", "A schema for extracting clinical data datasets from papers.",
		Field{Name: "name", Type: String, Desc: "The name of the clinical data dataset"},
		Field{Name: "description", Type: String, Desc: "A short description of the content of the dataset"},
		Field{Name: "url", Type: String, Desc: "The public URL where the dataset can be accessed"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewBasic(t *testing.T) {
	s := clinical(t)
	if s.Name() != "ClinicalData" || s.Len() != 3 {
		t.Fatalf("got %s len=%d", s.Name(), s.Len())
	}
	f, ok := s.Field("url")
	if !ok || f.Type != String || !strings.Contains(f.Desc, "URL") {
		t.Fatalf("Field(url) = %+v, %v", f, ok)
	}
}

func TestNewRejectsBadNames(t *testing.T) {
	if _, err := New("", ""); err == nil {
		t.Error("empty schema name accepted")
	}
	if _, err := New("S", "", Field{Name: "has space"}); err == nil {
		t.Error("field name with space accepted")
	}
	if _, err := New("S", "", Field{Name: "a"}, Field{Name: "a"}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := New("S", "", Field{Name: "1bad"}); err == nil {
		t.Error("leading-digit field accepted")
	}
}

func TestFieldNamesOrder(t *testing.T) {
	s := clinical(t)
	want := []string{"name", "description", "url"}
	if got := s.FieldNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FieldNames = %v, want %v", got, want)
	}
}

func TestString(t *testing.T) {
	s := clinical(t)
	if got := s.String(); got != "ClinicalData(name:string, description:string, url:string)" {
		t.Fatalf("String = %q", got)
	}
}

func TestProject(t *testing.T) {
	s := clinical(t)
	p, err := s.Project("url", "name")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.FieldNames(); !reflect.DeepEqual(got, []string{"url", "name"}) {
		t.Fatalf("projected fields = %v", got)
	}
	if _, err := s.Project("nope"); err == nil {
		t.Error("projecting missing field should error")
	}
}

func TestNewFields(t *testing.T) {
	src := MustNew("PDFFile", "", Field{Name: "filename", Type: String}, Field{Name: "contents", Type: String})
	dst := clinical(t)
	nf := NewFields(src, dst)
	if len(nf) != 3 {
		t.Fatalf("NewFields = %v", nf)
	}
	same := NewFields(dst, dst)
	if len(same) != 0 {
		t.Fatalf("NewFields(self) = %v", same)
	}
}

func TestEqual(t *testing.T) {
	a, b := clinical(t), clinical(t)
	if !Equal(a, b) {
		t.Error("identical schemas not Equal")
	}
	c := MustNew(b.Name(), b.Doc(), append(b.Fields(), Field{Name: "extra"})...)
	if Equal(a, c) {
		t.Error("different schemas Equal")
	}
	if Equal(a, nil) || !Equal(nil, nil) {
		t.Error("nil handling wrong")
	}
}

func TestDeriveFigure2(t *testing.T) {
	// Exactly the paper's Figure 2 example.
	s, err := Derive("Author", "Author information from a paper.",
		[]string{"name", "email", "affiliation"},
		[]string{"The author's name", "The author's email", "The author's affiliation"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "Author" || s.Len() != 3 {
		t.Fatalf("derived %s len=%d", s.Name(), s.Len())
	}
	f, _ := s.Field("email")
	if f.Desc != "The author's email" {
		t.Fatalf("email desc = %q", f.Desc)
	}
}

func TestDeriveSanitizesNames(t *testing.T) {
	s, err := Derive("Clinical Data", "", []string{"Dataset Name", "public URL"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "ClinicalData" {
		t.Errorf("schema name = %q", s.Name())
	}
	if got := s.FieldNames(); !reflect.DeepEqual(got, []string{"dataset_name", "public_url"}) {
		t.Errorf("fields = %v", got)
	}
}

func TestDeriveTypedFields(t *testing.T) {
	s, err := Derive("Listing", "", []string{"price:float", "bedrooms:int", "address"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s.Field("price")
	b, _ := s.Field("bedrooms")
	a, _ := s.Field("address")
	if p.Type != Float || b.Type != Int || a.Type != String {
		t.Fatalf("types = %v %v %v", p.Type, b.Type, a.Type)
	}
}

func TestDeriveErrors(t *testing.T) {
	if _, err := Derive("S", "", nil, nil); err == nil {
		t.Error("no fields accepted")
	}
	if _, err := Derive("S", "", []string{"a", "b"}, []string{"only one"}); err == nil {
		t.Error("mismatched descriptions accepted")
	}
	if _, err := Derive("S", "", []string{"x:notatype"}, nil); err == nil {
		t.Error("bad type annotation accepted")
	}
}

func TestSanitizeFieldName(t *testing.T) {
	cases := map[string]string{
		"Dataset Name":  "dataset_name",
		"public-URL":    "public_url",
		"  a.b  ":       "a_b",
		"x__y":          "x_y",
		"42nd_street":   "f_42nd_street",
		"CamelCaseName": "camelcasename",
	}
	for in, want := range cases {
		got, err := SanitizeFieldName(in)
		if err != nil || got != want {
			t.Errorf("SanitizeFieldName(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := SanitizeFieldName("!!!"); err == nil {
		t.Error("unusable name accepted")
	}
}

func TestSanitizedNamesAlwaysValid(t *testing.T) {
	f := func(s string) bool {
		clean, err := SanitizeFieldName(s)
		return err != nil || ValidFieldName(clean)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseFieldType(t *testing.T) {
	cases := map[string]FieldType{
		"string": String, "STR": String, "text": String, "": String,
		"int": Int, "integer": Int, "number": Int,
		"float": Float, "double": Float,
		"bool": Bool, "boolean": Bool,
		"list[string]": StringList, "list": StringList,
		"bytes": Bytes, "blob": Bytes,
	}
	for in, want := range cases {
		got, err := ParseFieldType(in)
		if err != nil || got != want {
			t.Errorf("ParseFieldType(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFieldType("quux"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestFieldTypeStringAndZero(t *testing.T) {
	types := []FieldType{String, Int, Float, Bool, StringList, Bytes}
	for _, ft := range types {
		if ft.String() == "" {
			t.Errorf("empty String() for %d", ft)
		}
		if !ft.CheckValue(ft.Zero()) && ft != StringList && ft != Bytes {
			t.Errorf("Zero() of %v fails CheckValue", ft)
		}
	}
}

func TestCheckValue(t *testing.T) {
	if !String.CheckValue("x") || String.CheckValue(1) {
		t.Error("String.CheckValue wrong")
	}
	if !Int.CheckValue(int64(3)) || !Int.CheckValue(3) || Int.CheckValue("3") {
		t.Error("Int.CheckValue wrong")
	}
	if !Float.CheckValue(2.5) || Float.CheckValue(2) {
		t.Error("Float.CheckValue wrong")
	}
	if !StringList.CheckValue([]string{"a"}) || StringList.CheckValue([]int{1}) {
		t.Error("StringList.CheckValue wrong")
	}
}

func TestBuiltinsAndForExtension(t *testing.T) {
	if !PDFFile.Has("filename") || !PDFFile.Has("contents") {
		t.Error("PDFFile fields missing")
	}
	s, ok := ForExtension(".pdf")
	if !ok || s.Name() != "PDFFile" {
		t.Errorf("ForExtension(.pdf) = %v, %v", s.Name(), ok)
	}
	s, ok = ForExtension(".xyz")
	if ok || s.Name() != "TextFile" {
		t.Errorf("ForExtension(.xyz) = %v, %v", s.Name(), ok)
	}
	if s, ok := ForExtension(".csv"); !ok || s.Name() != "CSVRow" {
		t.Errorf("ForExtension(.csv) = %v", s.Name())
	}
}
