package tmpl

import (
	"strings"
	"testing"
	"testing/quick"
)

func render(t *testing.T, src string, env Env) string {
	t.Helper()
	out, err := Render(src, env)
	if err != nil {
		t.Fatalf("Render(%q) error: %v", src, err)
	}
	return out
}

func TestRenderPlainText(t *testing.T) {
	if got := render(t, "no variables here", nil); got != "no variables here" {
		t.Fatalf("got %q", got)
	}
}

func TestRenderSimpleVariable(t *testing.T) {
	got := render(t, `schema = {{ schema_name }}`, Env{"schema_name": "ClinicalData"})
	if got != "schema = ClinicalData" {
		t.Fatalf("got %q", got)
	}
}

func TestRenderFigure2Style(t *testing.T) {
	// Mirrors the paper's Figure 2 tool template.
	src := `class_name = "{{ schema_name }}"
fields = {{ field_names|join:", " }}`
	env := Env{
		"schema_name": "Author",
		"field_names": []string{"name", "email", "affiliation"},
	}
	got := render(t, src, env)
	want := "class_name = \"Author\"\nfields = name, email, affiliation"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestRenderDottedPath(t *testing.T) {
	env := Env{"record": map[string]any{"url": "https://data.example.org/d1"}}
	if got := render(t, "{{record.url}}", env); got != "https://data.example.org/d1" {
		t.Fatalf("got %q", got)
	}
}

func TestRenderIndexedPath(t *testing.T) {
	env := Env{"fields": []string{"name", "description", "url"}}
	if got := render(t, "{{fields.2}}", env); got != "url" {
		t.Fatalf("got %q", got)
	}
}

func TestRenderNestedEnv(t *testing.T) {
	env := Env{"a": Env{"b": Env{"c": 42}}}
	if got := render(t, "{{a.b.c}}", env); got != "42" {
		t.Fatalf("got %q", got)
	}
}

func TestUndefinedVariableErrors(t *testing.T) {
	_, err := Render("{{missing}}", Env{"present": 1})
	if err == nil || !strings.Contains(err.Error(), "undefined variable") {
		t.Fatalf("err = %v, want undefined variable", err)
	}
	if !strings.Contains(err.Error(), "present") {
		t.Errorf("error should list bound names: %v", err)
	}
}

func TestMissingFieldErrors(t *testing.T) {
	_, err := Render("{{r.nope}}", Env{"r": map[string]any{"yes": 1}})
	if err == nil {
		t.Fatal("want error")
	}
}

func TestBadIndexErrors(t *testing.T) {
	for _, src := range []string{"{{xs.9}}", "{{xs.-1}}", "{{xs.foo}}"} {
		if _, err := Render(src, Env{"xs": []string{"a"}}); err == nil {
			t.Errorf("Render(%q): want error", src)
		}
	}
}

func TestUnbalancedBraces(t *testing.T) {
	for _, src := range []string{"{{a", "a}}", "{{}}"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		}
	}
}

func TestFilters(t *testing.T) {
	cases := []struct {
		src  string
		env  Env
		want string
	}{
		{"{{x|upper}}", Env{"x": "abc"}, "ABC"},
		{"{{x|lower}}", Env{"x": "ABC"}, "abc"},
		{"{{x|title}}", Env{"x": "clinical data"}, "Clinical Data"},
		{"{{x|quote}}", Env{"x": `a"b`}, `"a\"b"`},
		{"{{x|trim}}", Env{"x": "  hi  "}, "hi"},
		{"{{x|join}}", Env{"x": []string{"a", "b"}}, "a, b"},
		{`{{x|join:" / "}}`, Env{"x": []any{"a", 1}}, "a / 1"},
		{"{{x|length}}", Env{"x": []string{"a", "b", "c"}}, "3"},
		{"{{x|length}}", Env{"x": "abcd"}, "4"},
		{`{{x|default:"fallback"}}`, Env{"x": ""}, "fallback"},
		{`{{x|default:"fallback"}}`, Env{"x": "real"}, "real"},
		{"{{x|trim|upper}}", Env{"x": " chained "}, "CHAINED"},
	}
	for _, c := range cases {
		if got := render(t, c.src, c.env); got != c.want {
			t.Errorf("Render(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestUnknownFilterErrors(t *testing.T) {
	if _, err := Render("{{x|frobnicate}}", Env{"x": 1}); err == nil {
		t.Fatal("want error for unknown filter")
	}
}

func TestEnvClone(t *testing.T) {
	e := Env{"a": 1}
	c := e.Clone()
	c["a"] = 2
	c["b"] = 3
	if e["a"] != 1 {
		t.Error("clone mutated original value")
	}
	if _, ok := e["b"]; ok {
		t.Error("clone added key to original")
	}
}

func TestStringify(t *testing.T) {
	cases := []struct {
		in   any
		want string
	}{
		{nil, ""},
		{"s", "s"},
		{true, "true"},
		{7, "7"},
		{int64(8), "8"},
		{2.5, "2.5"},
		{[]string{"a", "b"}, "a, b"},
		{[]any{1, "x"}, "1, x"},
	}
	for _, c := range cases {
		if got := Stringify(c.in); got != c.want {
			t.Errorf("Stringify(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRenderLiteralRoundTrip(t *testing.T) {
	// Any text without braces renders to itself.
	f := func(s string) bool {
		if strings.Contains(s, "{{") || strings.Contains(s, "}}") {
			return true
		}
		got, err := Render(s, nil)
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseRenderIdempotentTemplate(t *testing.T) {
	tpl := MustParse("{{a}}-{{b}}")
	e := Env{"a": "x", "b": "y"}
	r1, err1 := tpl.Render(e)
	r2, err2 := tpl.Render(e)
	if err1 != nil || err2 != nil || r1 != r2 {
		t.Fatalf("renders differ: %q/%v vs %q/%v", r1, err1, r2, err2)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad template")
		}
	}()
	MustParse("{{oops")
}
