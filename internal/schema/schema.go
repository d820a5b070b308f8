// Package schema implements Palimpzest's dynamic schema system. A schema is
// a named, documented, ordered collection of typed fields with natural-
// language descriptions; the descriptions are what LLM-backed operators use
// to extract values from unstructured records (paper §2.1: "A schema
// consists of the attribute names, types, and descriptions used to process
// the dataset").
//
// Schemas are immutable after construction; Project returns a new schema.
// Derive builds one from parallel name and description lists, mirroring
// the paper's dynamic schema generation — `type(class_name, (pz.Schema,),
// fields)` in the demo's Figure 2 — while staying idiomatic Go.
package schema

import (
	"cmp"
	"fmt"
	"regexp"
	"slices"
	"strings"
)

// FieldType enumerates the value types a schema field may hold.
type FieldType int

// Supported field types.
const (
	String FieldType = iota
	Int
	Float
	Bool
	StringList
	Bytes
)

// String implements fmt.Stringer.
func (t FieldType) String() string {
	switch t {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case StringList:
		return "list[string]"
	case Bytes:
		return "bytes"
	default:
		return fmt.Sprintf("FieldType(%d)", int(t))
	}
}

// ParseFieldType converts a type name (as written in pipeline specs or by
// the chat agent) into a FieldType.
func ParseFieldType(s string) (FieldType, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "string", "str", "text", "":
		return String, nil
	case "int", "integer", "number":
		return Int, nil
	case "float", "double", "real":
		return Float, nil
	case "bool", "boolean":
		return Bool, nil
	case "list[string]", "list", "strings", "[]string":
		return StringList, nil
	case "bytes", "binary", "blob":
		return Bytes, nil
	default:
		return String, fmt.Errorf("schema: unknown field type %q", s)
	}
}

// Field describes one attribute of a schema.
type Field struct {
	// Name is the attribute name. Per the paper ("Field names cannot have
	// spaces or special characters"), names must match identRE.
	Name string
	// Type is the value type of the attribute.
	Type FieldType
	// Desc is the natural-language description used by LLM-backed
	// extraction to compute this field's value.
	Desc string
}

var identRE = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// ValidFieldName reports whether name is a legal field name.
func ValidFieldName(name string) bool { return identRE.MatchString(name) }

// SanitizeFieldName converts an arbitrary phrase to a legal field name
// ("dataset name" -> "dataset_name"). It returns an error when nothing
// usable remains.
func SanitizeFieldName(name string) (string, error) {
	var b strings.Builder
	for _, r := range strings.TrimSpace(strings.ToLower(name)) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '.':
			b.WriteRune('_')
		}
	}
	s := strings.Trim(b.String(), "_")
	for strings.Contains(s, "__") {
		s = strings.ReplaceAll(s, "__", "_")
	}
	if s == "" {
		return "", fmt.Errorf("schema: cannot derive field name from %q", name)
	}
	if s[0] >= '0' && s[0] <= '9' {
		s = "f_" + s
	}
	return s, nil
}

// Schema is an immutable named collection of fields.
type Schema struct {
	name   string
	doc    string
	fields []Field
	index  map[string]int
}

// New constructs a schema. It returns an error for an empty name, duplicate
// field names, or illegal field names.
func New(name, doc string, fields ...Field) (*Schema, error) {
	if strings.TrimSpace(name) == "" {
		return nil, fmt.Errorf("schema: empty schema name")
	}
	s := &Schema{name: name, doc: doc, index: make(map[string]int, len(fields))}
	for _, f := range fields {
		if !ValidFieldName(f.Name) {
			return nil, fmt.Errorf("schema %s: illegal field name %q", name, f.Name)
		}
		if _, dup := s.index[f.Name]; dup {
			return nil, fmt.Errorf("schema %s: duplicate field %q", name, f.Name)
		}
		s.index[f.Name] = len(s.fields)
		s.fields = append(s.fields, f)
	}
	return s, nil
}

// MustNew is New that panics on error; for built-in schema definitions.
func MustNew(name, doc string, fields ...Field) *Schema {
	s, err := New(name, doc, fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the schema name.
func (s *Schema) Name() string { return s.name }

// Doc returns the schema's documentation string.
func (s *Schema) Doc() string { return s.doc }

// Fields returns a copy of the schema's fields in declaration order.
func (s *Schema) Fields() []Field {
	out := make([]Field, len(s.fields))
	copy(out, s.fields)
	return out
}

// FieldAt returns the i'th field in declaration order. Unlike Fields it
// copies nothing, so per-record loops use it with Len.
func (s *Schema) FieldAt(i int) Field { return s.fields[i] }

// FieldNames returns the field names in declaration order.
func (s *Schema) FieldNames() []string {
	out := make([]string, len(s.fields))
	for i, f := range s.fields {
		out[i] = f.Name
	}
	return out
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Field returns the named field.
func (s *Schema) Field(name string) (Field, bool) {
	i, ok := s.index[name]
	if !ok {
		return Field{}, false
	}
	return s.fields[i], true
}

// Index returns the position of the named field in declaration order, the
// slot a record of this schema holds its value in.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// AppendSlotsByName appends the slots of s's fields to dst, ordered by
// field name: the order in which encoding/json writes a map keyed by them.
func (s *Schema) AppendSlotsByName(dst []int) []int {
	n := len(dst)
	for i := range s.fields {
		dst = append(dst, i)
	}
	slices.SortFunc(dst[n:], func(a, b int) int { return cmp.Compare(s.fields[a].Name, s.fields[b].Name) })
	return dst
}

// Has reports whether the schema declares the named field.
func (s *Schema) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// String renders the schema as "Name(field:type, ...)".
func (s *Schema) String() string {
	parts := make([]string, len(s.fields))
	for i, f := range s.fields {
		parts[i] = f.Name + ":" + f.Type.String()
	}
	return s.name + "(" + strings.Join(parts, ", ") + ")"
}

// Project returns a new schema containing only the named fields, in the
// given order. It errors when a requested field does not exist.
func (s *Schema) Project(names ...string) (*Schema, error) {
	fields := make([]Field, 0, len(names))
	for _, n := range names {
		f, ok := s.Field(n)
		if !ok {
			return nil, fmt.Errorf("schema %s: project: no field %q", s.name, n)
		}
		fields = append(fields, f)
	}
	return New(s.name+"_proj", s.doc, fields...)
}

// NewFields returns the fields of target that are not declared by s. These
// are the fields a Convert operator must compute (paper §2.1: Convert
// "transforms an object of schema A into an object of schema B by computing
// the fields in B that do not explicitly exist in A").
func NewFields(s, target *Schema) []Field {
	var out []Field
	for _, f := range target.fields {
		if !s.Has(f.Name) {
			out = append(out, f)
		}
	}
	return out
}

// Equal reports whether two schemas have the same name and identical field
// declarations in the same order.
func Equal(a, b *Schema) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.name != b.name || a.doc != b.doc || len(a.fields) != len(b.fields) {
		return false
	}
	for i := range a.fields {
		if a.fields[i] != b.fields[i] {
			return false
		}
	}
	return true
}

// Derive builds a schema from parallel name/description slices, the way the
// chat agent's create_schema tool does (paper Figure 2). Field names are
// sanitized; all fields are strings unless a "name:type" annotation is used.
func Derive(schemaName, schemaDoc string, fieldNames, fieldDescs []string) (*Schema, error) {
	if len(fieldNames) == 0 {
		return nil, fmt.Errorf("schema: derive %s: no fields", schemaName)
	}
	if len(fieldDescs) != 0 && len(fieldDescs) != len(fieldNames) {
		return nil, fmt.Errorf("schema: derive %s: %d names but %d descriptions",
			schemaName, len(fieldNames), len(fieldDescs))
	}
	fields := make([]Field, 0, len(fieldNames))
	for i, raw := range fieldNames {
		name, typ := raw, String
		if j := strings.Index(raw, ":"); j >= 0 {
			t, err := ParseFieldType(raw[j+1:])
			if err != nil {
				return nil, err
			}
			name, typ = raw[:j], t
		}
		clean, err := SanitizeFieldName(name)
		if err != nil {
			return nil, err
		}
		desc := ""
		if i < len(fieldDescs) {
			desc = fieldDescs[i]
		}
		fields = append(fields, Field{Name: clean, Type: typ, Desc: desc})
	}
	cleanName := sanitizeSchemaName(schemaName)
	return New(cleanName, schemaDoc, fields...)
}

func sanitizeSchemaName(name string) string {
	var b strings.Builder
	for _, r := range strings.TrimSpace(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			// CamelCase at word boundaries is handled below; just drop.
		}
	}
	if b.Len() == 0 {
		return "Schema"
	}
	return b.String()
}

// Zero returns the zero value for a field type.
func (t FieldType) Zero() any {
	switch t {
	case String:
		return ""
	case Int:
		return int64(0)
	case Float:
		return float64(0)
	case Bool:
		return false
	case StringList:
		return []string(nil)
	case Bytes:
		return []byte(nil)
	default:
		return nil
	}
}

// CheckValue reports whether v is an acceptable Go value for field type t.
func (t FieldType) CheckValue(v any) bool {
	switch t {
	case String:
		_, ok := v.(string)
		return ok
	case Int:
		switch v.(type) {
		case int, int64:
			return true
		}
		return false
	case Float:
		switch v.(type) {
		case float64, float32:
			return true
		}
		return false
	case Bool:
		_, ok := v.(bool)
		return ok
	case StringList:
		_, ok := v.([]string)
		return ok
	case Bytes:
		_, ok := v.([]byte)
		return ok
	default:
		return false
	}
}
