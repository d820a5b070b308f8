// Package tmpl implements the Jinja-style {{variable}} template syntax used
// by Archytas tools (paper Figure 2): "if a variable is expressed in round
// brackets as {{variable}}, the Archytas agent will fill the variable with a
// variable available at run-time in the Python execution environment".
//
// The engine supports dotted lookups into nested maps ({{record.url}}),
// indexed lookups into slices ({{fields.0}}), and a small set of pipe
// filters ({{name|upper}}, {{desc|quote}}, {{items|join:", "}}). Rendering
// is strict by default: referencing an unknown variable is an error, which
// surfaces agent bugs instead of silently emitting empty strings.
package tmpl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Env is the runtime variable environment a template is rendered against.
type Env map[string]any

// Clone returns a shallow copy of the environment.
func (e Env) Clone() Env {
	out := make(Env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// Names returns the sorted variable names bound in the environment.
func (e Env) Names() []string {
	out := make([]string, 0, len(e))
	for k := range e {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Template is a parsed template. Parse once, render many times.
type Template struct {
	src   string
	parts []part
}

type part struct {
	lit  string // literal text when expr == ""
	expr string // raw expression between {{ }}
}

// Parse compiles src into a Template. It returns an error on unbalanced
// braces.
func Parse(src string) (*Template, error) {
	t := &Template{src: src}
	rest := src
	for {
		open := strings.Index(rest, "{{")
		if open < 0 {
			if strings.Contains(rest, "}}") {
				return nil, fmt.Errorf("tmpl: unmatched }} in %q", snippet(rest))
			}
			if rest != "" {
				t.parts = append(t.parts, part{lit: rest})
			}
			return t, nil
		}
		if open > 0 {
			t.parts = append(t.parts, part{lit: rest[:open]})
		}
		rest = rest[open+2:]
		close := strings.Index(rest, "}}")
		if close < 0 {
			return nil, fmt.Errorf("tmpl: unmatched {{ in %q", snippet(rest))
		}
		expr := strings.TrimSpace(rest[:close])
		if expr == "" {
			return nil, fmt.Errorf("tmpl: empty expression {{}}")
		}
		t.parts = append(t.parts, part{expr: expr})
		rest = rest[close+2:]
	}
}

func snippet(s string) string {
	if len(s) > 32 {
		return s[:32] + "..."
	}
	return s
}

// MustParse is Parse that panics on error; for templates defined as package
// constants.
func MustParse(src string) *Template {
	t, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return t
}

// Source returns the original template source.
func (t *Template) Source() string { return t.src }

// Render evaluates the template against env.
func (t *Template) Render(env Env) (string, error) {
	var b strings.Builder
	for _, p := range t.parts {
		if p.expr == "" {
			b.WriteString(p.lit)
			continue
		}
		v, err := eval(p.expr, env)
		if err != nil {
			return "", err
		}
		b.WriteString(v)
	}
	return b.String(), nil
}

// Render is a one-shot Parse+Render convenience.
func Render(src string, env Env) (string, error) {
	t, err := Parse(src)
	if err != nil {
		return "", err
	}
	return t.Render(env)
}

func eval(expr string, env Env) (string, error) {
	segs := strings.Split(expr, "|")
	val, err := lookup(strings.TrimSpace(segs[0]), env)
	if err != nil {
		return "", err
	}
	for _, f := range segs[1:] {
		val, err = applyFilter(strings.TrimSpace(f), val)
		if err != nil {
			return "", err
		}
	}
	return Stringify(val), nil
}

func lookup(path string, env Env) (any, error) {
	fields := strings.Split(path, ".")
	var cur any
	root := fields[0]
	cur, ok := env[root]
	if !ok {
		return nil, fmt.Errorf("tmpl: undefined variable %q (bound: %s)", root, strings.Join(env.Names(), ", "))
	}
	for _, f := range fields[1:] {
		switch c := cur.(type) {
		case Env:
			v, ok := c[f]
			if !ok {
				return nil, fmt.Errorf("tmpl: %q has no field %q", path, f)
			}
			cur = v
		case map[string]any:
			v, ok := c[f]
			if !ok {
				return nil, fmt.Errorf("tmpl: %q has no field %q", path, f)
			}
			cur = v
		case map[string]string:
			v, ok := c[f]
			if !ok {
				return nil, fmt.Errorf("tmpl: %q has no field %q", path, f)
			}
			cur = v
		case []any:
			i, err := strconv.Atoi(f)
			if err != nil || i < 0 || i >= len(c) {
				return nil, fmt.Errorf("tmpl: bad index %q into %q (len %d)", f, path, len(c))
			}
			cur = c[i]
		case []string:
			i, err := strconv.Atoi(f)
			if err != nil || i < 0 || i >= len(c) {
				return nil, fmt.Errorf("tmpl: bad index %q into %q (len %d)", f, path, len(c))
			}
			cur = c[i]
		default:
			return nil, fmt.Errorf("tmpl: cannot descend into %T at %q.%s", cur, path, f)
		}
	}
	return cur, nil
}

func applyFilter(f string, v any) (any, error) {
	name, arg := f, ""
	if i := strings.Index(f, ":"); i >= 0 {
		name, arg = f[:i], strings.TrimSpace(f[i+1:])
		// Strip one matching pair of surrounding quotes, preserving any
		// whitespace inside them ({{x|join:" / "}}).
		if len(arg) >= 2 && (arg[0] == '"' || arg[0] == '\'') && arg[len(arg)-1] == arg[0] {
			arg = arg[1 : len(arg)-1]
		}
	}
	switch name {
	case "upper":
		return strings.ToUpper(Stringify(v)), nil
	case "lower":
		return strings.ToLower(Stringify(v)), nil
	case "title":
		return titleCase(Stringify(v)), nil
	case "quote":
		return strconv.Quote(Stringify(v)), nil
	case "trim":
		return strings.TrimSpace(Stringify(v)), nil
	case "join":
		items, err := asStrings(v)
		if err != nil {
			return nil, err
		}
		if arg == "" {
			arg = ", "
		}
		return strings.Join(items, arg), nil
	case "length":
		switch c := v.(type) {
		case string:
			return len(c), nil
		case []any:
			return len(c), nil
		case []string:
			return len(c), nil
		default:
			return nil, fmt.Errorf("tmpl: length of %T unsupported", v)
		}
	case "default":
		if Stringify(v) == "" {
			return arg, nil
		}
		return v, nil
	default:
		return nil, fmt.Errorf("tmpl: unknown filter %q", name)
	}
}

func titleCase(s string) string {
	fields := strings.Fields(s)
	for i, f := range fields {
		fields[i] = strings.ToUpper(f[:1]) + f[1:]
	}
	return strings.Join(fields, " ")
}

func asStrings(v any) ([]string, error) {
	switch c := v.(type) {
	case []string:
		return c, nil
	case []any:
		out := make([]string, len(c))
		for i, x := range c {
			out[i] = Stringify(x)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("tmpl: join of %T unsupported", v)
	}
}

// Stringify converts a template value to its rendered string form.
func Stringify(v any) string {
	switch c := v.(type) {
	case nil:
		return ""
	case string:
		return c
	case bool:
		return strconv.FormatBool(c)
	case int:
		return strconv.Itoa(c)
	case int64:
		return strconv.FormatInt(c, 10)
	case float64:
		return strconv.FormatFloat(c, 'g', -1, 64)
	case []string:
		return strings.Join(c, ", ")
	case []any:
		parts := make([]string, len(c))
		for i, x := range c {
			parts[i] = Stringify(x)
		}
		return strings.Join(parts, ", ")
	case fmt.Stringer:
		return c.String()
	default:
		return fmt.Sprintf("%v", c)
	}
}
