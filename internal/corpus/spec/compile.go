package spec

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"repro/internal/corpus"
)

// Compiled is a validated, cross-referenced domain spec, ready to mint
// generators. Compile once, generate any number of corpora.
type Compiled struct {
	spec         *DomainSpec
	fields       []compiledField
	filename     template
	text         template
	topics       []template
	truthFields  map[string]template
	truthNumbers map[string]int // annotation name -> numeric field index
}

type compiledField struct {
	spec *FieldSpec
	// tmpl is the parsed body of a "template" generator.
	tmpl template
	// cols maps a "pickrow" generator's column names to row indices.
	cols map[string]int
}

// Compile cross-references a parsed spec: every template placeholder must
// resolve, truth numbers must point at numeric fields, and template
// fields may not reference other template fields (which rules out
// reference cycles by construction).
func Compile(s *DomainSpec) (*Compiled, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	c := &Compiled{
		spec:         s,
		fields:       make([]compiledField, len(s.Fields)),
		truthFields:  map[string]template{},
		truthNumbers: map[string]int{},
	}
	index := map[string]int{}
	for i := range s.Fields {
		f := &s.Fields[i]
		index[f.Name] = i
		c.fields[i].spec = f
		if f.Gen == "pickrow" {
			cols := make(map[string]int, len(f.Columns))
			for j, col := range f.Columns {
				cols[col] = j
			}
			c.fields[i].cols = cols
		}
	}
	// Template-generator bodies: no references to other template fields.
	for i := range s.Fields {
		f := &s.Fields[i]
		if f.Gen != "template" {
			continue
		}
		tmpl, err := c.parseTemplate(f.Template, index, false)
		if err != nil {
			return nil, fmt.Errorf("spec: %s: field %q: %w", s.Name, f.Name, err)
		}
		c.fields[i].tmpl = tmpl
	}
	var err error
	if c.filename, err = c.parseTemplate(s.Filename, index, true); err != nil {
		return nil, fmt.Errorf("spec: %s: filename: %w", s.Name, err)
	}
	if c.text, err = c.parseTemplate(s.Text, index, true); err != nil {
		return nil, fmt.Errorf("spec: %s: text: %w", s.Name, err)
	}
	for _, topic := range s.Truth.Topics {
		tmpl, err := c.parseTemplate(topic, index, true)
		if err != nil {
			return nil, fmt.Errorf("spec: %s: topic: %w", s.Name, err)
		}
		c.topics = append(c.topics, tmpl)
	}
	for name, body := range s.Truth.Fields {
		if err := checkName("truth field", name); err != nil {
			return nil, err
		}
		tmpl, err := c.parseTemplate(body, index, true)
		if err != nil {
			return nil, fmt.Errorf("spec: %s: truth field %q: %w", s.Name, name, err)
		}
		c.truthFields[name] = tmpl
	}
	for name, body := range s.Truth.Numbers {
		if err := checkName("truth number", name); err != nil {
			return nil, err
		}
		fi, err := c.numericRef(body, index)
		if err != nil {
			return nil, fmt.Errorf("spec: %s: truth number %q: %w", s.Name, name, err)
		}
		c.truthNumbers[name] = fi
	}
	return c, nil
}

// Load reads, parses, and compiles a spec file.
func Load(path string) (*Compiled, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	c, err := Compile(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Spec returns the compiled spec document.
func (c *Compiled) Spec() *DomainSpec { return c.spec }

// Domain packages the compiled spec as a corpus.Domain, interchangeable
// with the hand-written Go domains (registry, pzcorpus, pzbench).
func (c *Compiled) Domain() corpus.Domain {
	rate := 0.0
	if c.spec.Positive != nil {
		rate = c.spec.Positive.Rate
	}
	return corpus.Domain{
		Name:        c.spec.Name,
		Description: c.spec.Description,
		Workload:    c.spec.Workload,
		DefaultDocs: c.spec.Docs,
		DefaultRate: rate,
		Streaming:   true,
		New: func(n int, rate float64, seed int64) corpus.Generator {
			return c.Generator(n, rate, seed)
		},
		Validate: c.validateDoc,
	}
}

// Register adds the compiled domain to the corpus registry.
func (c *Compiled) Register() error { return corpus.RegisterDomain(c.Domain()) }

// Generator mints an index-addressable generator of n documents (the spec
// default when n <= 0) at the given positive-class rate (the spec default
// when negative).
func (c *Compiled) Generator(n int, rate float64, seed int64) corpus.Generator {
	if n <= 0 {
		n = c.spec.Docs
	}
	var ps corpus.PositiveScatter
	if c.spec.Positive != nil {
		if rate < 0 {
			rate = c.spec.Positive.Rate
		}
		ps = corpus.NewPositiveScatter(seed, n, rate)
	}
	return corpus.NewIndexGenerator(c.spec.Name, n, seed, func(rng *rand.Rand, i int) *corpus.Doc {
		positive := c.spec.Positive != nil && ps.Positive(i)
		return c.doc(rng, i, positive)
	})
}

// validateDoc is the compiled domain's per-document Validate hook: the
// positive label must be present (true or false) when the spec declares
// one; everything else is covered by the generic Truth contract.
func (c *Compiled) validateDoc(d *corpus.Doc) error {
	if p := c.spec.Positive; p != nil {
		if _, ok := d.Truth.Labels[p.Label]; !ok {
			return fmt.Errorf("label %q missing from truth", p.Label)
		}
	}
	return nil
}

// fieldVal is one field's realized value for one document.
type fieldVal struct {
	str   string
	num   float64
	isNum bool
	row   []string
}

// doc realizes document i from rng, document i's DocRNG stream. Draw
// order is the package determinism contract: base draws in field order,
// then positive overrides in field order, then (draw-free) template
// fields, filename, text, and truth.
func (c *Compiled) doc(rng *rand.Rand, i int, positive bool) *corpus.Doc {
	vals := make([]fieldVal, len(c.fields))
	for fi := range c.fields {
		f := c.fields[fi].spec
		switch f.Gen {
		case "pick":
			vals[fi].str = f.Choices[rng.Intn(len(f.Choices))]
		case "pickrow":
			row := f.Rows[rng.Intn(len(f.Rows))]
			vals[fi] = fieldVal{str: row[0], row: row}
		case "int":
			vals[fi] = drawInt(rng, f.Min, f.Max, f.Scale, f.Format)
		case "float":
			vals[fi] = drawFloat(rng, f.Min, f.Max, f.Decimals)
		case "const":
			vals[fi].str = f.Value
		}
	}
	if positive {
		for fi := range c.fields {
			f := c.fields[fi].spec
			o := f.Positive
			if o == nil {
				continue
			}
			switch f.Gen {
			case "pick":
				vals[fi].str = o.Choices[rng.Intn(len(o.Choices))]
			case "int":
				vals[fi] = drawInt(rng, o.Min, o.Max, o.Scale, o.Format)
			case "float":
				vals[fi] = drawFloat(rng, o.Min, o.Max, o.Decimals)
			}
		}
	}
	for fi := range c.fields {
		if c.fields[fi].spec.Gen == "template" {
			vals[fi].str = c.render(c.fields[fi].tmpl, vals, i)
		}
	}

	truth := &corpus.Truth{}
	for _, tmpl := range c.topics {
		truth.Topics = append(truth.Topics, c.render(tmpl, vals, i))
	}
	if p := c.spec.Positive; p != nil {
		truth.Labels = map[string]bool{p.Label: positive}
	}
	if len(c.truthFields) > 0 {
		truth.Fields = make(map[string]string, len(c.truthFields))
		for name, tmpl := range c.truthFields {
			truth.Fields[name] = c.render(tmpl, vals, i)
		}
	}
	if len(c.truthNumbers) > 0 {
		truth.Numbers = make(map[string]float64, len(c.truthNumbers))
		for name, fi := range c.truthNumbers {
			truth.Numbers[name] = vals[fi].num
		}
	}
	return &corpus.Doc{
		Filename: c.render(c.filename, vals, i),
		Text:     c.render(c.text, vals, i),
		Truth:    truth,
	}
}

// drawInt draws from [min, max], scales, and renders. The draw consumes
// exactly one rng.Intn call whenever the range has more than one value,
// matching the hand-written `lo + rng.Intn(hi-lo+1)` idiom.
func drawInt(rng interface{ Intn(int) int }, min, max, scale float64, format string) fieldVal {
	lo, hi := int64(min), int64(max)
	v := lo
	if hi > lo {
		v = lo + int64(rng.Intn(int(hi-lo+1)))
	}
	s := int64(scale)
	if s == 0 {
		s = 1
	}
	v *= s
	str := strconv.FormatInt(v, 10)
	if format != "" {
		str = fmt.Sprintf(format, v)
	}
	return fieldVal{str: str, num: float64(v), isNum: true}
}

// drawFloat draws uniformly from [min, max) and rounds to the given
// decimals — the "seeded noise" generator.
func drawFloat(rng interface{ Float64() float64 }, min, max float64, decimals int) fieldVal {
	v := min + rng.Float64()*(max-min)
	p := math.Pow(10, float64(decimals))
	v = math.Round(v*p) / p
	return fieldVal{str: strconv.FormatFloat(v, 'f', decimals, 64), num: v, isNum: true}
}

// Templates. Placeholders are {field}, {field.column} (pickrow columns),
// {index}/{index1} (document ordinal, 0- and 1-based), and
// {index:%06d}-style padded ordinals. "{{" and "}}" escape literal
// braces.

type template []segment

type segment struct {
	lit string
	// ref is the referenced field index (-1 for literals and builtins).
	ref int
	// col is the pickrow row index (-1 when unused).
	col int
	// isIndex marks an index-builtin segment.
	isIndex bool
	// base is the ordinal offset of an index builtin (0 or 1).
	base int
	// pad is the validated printf format of a padded ordinal ("" = plain).
	pad string
}

func isBuiltinRef(name string) bool { return name == "index" || name == "index1" }

// parseTemplate compiles a template body. allowTemplateFields permits
// references to "template"-generator fields (true for filename/text/truth
// templates, false inside template fields themselves, preventing cycles).
func (c *Compiled) parseTemplate(body string, index map[string]int, allowTemplateFields bool) (template, error) {
	var out template
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			out = append(out, segment{lit: lit.String(), ref: -1, col: -1})
			lit.Reset()
		}
	}
	for pos := 0; pos < len(body); {
		ch := body[pos]
		switch {
		case ch == '{' && pos+1 < len(body) && body[pos+1] == '{':
			lit.WriteByte('{')
			pos += 2
		case ch == '}' && pos+1 < len(body) && body[pos+1] == '}':
			lit.WriteByte('}')
			pos += 2
		case ch == '}':
			return nil, fmt.Errorf("unmatched '}' at byte %d", pos)
		case ch == '{':
			end := strings.IndexByte(body[pos:], '}')
			if end < 0 {
				return nil, fmt.Errorf("unclosed '{' at byte %d", pos)
			}
			seg, err := c.parseRef(body[pos+1:pos+end], index, allowTemplateFields)
			if err != nil {
				return nil, err
			}
			flush()
			out = append(out, seg)
			pos += end + 1
		default:
			lit.WriteByte(ch)
			pos++
		}
	}
	flush()
	return out, nil
}

// parseRef compiles one {...} placeholder body.
func (c *Compiled) parseRef(body string, index map[string]int, allowTemplateFields bool) (segment, error) {
	name := body
	pad := ""
	if colon := strings.IndexByte(body, ':'); colon >= 0 {
		name, pad = body[:colon], body[colon+1:]
	}
	col := ""
	if dot := strings.IndexByte(name, '.'); dot >= 0 {
		name, col = name[:dot], name[dot+1:]
	}
	if isBuiltinRef(name) {
		if col != "" {
			return segment{}, fmt.Errorf("{%s} takes no column", body)
		}
		base := 0
		if name == "index1" {
			base = 1
		}
		if pad != "" {
			var err error
			if pad, err = parsePad(pad); err != nil {
				return segment{}, err
			}
		}
		return segment{ref: -1, col: -1, isIndex: true, base: base, pad: pad}, nil
	}
	fi, ok := index[name]
	if !ok {
		return segment{}, fmt.Errorf("reference {%s} names no field", body)
	}
	f := c.fields[fi].spec
	if f.Gen == "template" && !allowTemplateFields {
		return segment{}, fmt.Errorf("reference {%s}: template fields may not reference other template fields", body)
	}
	if pad != "" {
		return segment{}, fmt.Errorf("reference {%s}: padded formats apply to index builtins only", body)
	}
	seg := segment{ref: fi, col: -1}
	if col != "" {
		if f.Gen != "pickrow" {
			return segment{}, fmt.Errorf("reference {%s}: %q is not a pickrow field", body, name)
		}
		ci, ok := c.fields[fi].cols[col]
		if !ok {
			return segment{}, fmt.Errorf("reference {%s}: no column %q in field %q", body, col, name)
		}
		seg.col = ci
	}
	return seg, nil
}

// numericRef resolves a truth-number template, which must be exactly one
// reference to a numeric ("int" or "float") field.
func (c *Compiled) numericRef(body string, index map[string]int) (int, error) {
	tmpl, err := c.parseTemplate(body, index, true)
	if err != nil {
		return 0, err
	}
	if len(tmpl) != 1 || tmpl[0].ref < 0 {
		return 0, fmt.Errorf("%q must be a single {field} reference to a numeric field", body)
	}
	fi := tmpl[0].ref
	if g := c.fields[fi].spec.Gen; g != "int" && g != "float" {
		return 0, fmt.Errorf("%q references %s field %q, want int or float", body, g, c.fields[fi].spec.Name)
	}
	return fi, nil
}

// render evaluates a compiled template for document i.
func (c *Compiled) render(tmpl template, vals []fieldVal, i int) string {
	var b strings.Builder
	for _, seg := range tmpl {
		switch {
		case seg.ref >= 0:
			if seg.col >= 0 {
				b.WriteString(vals[seg.ref].row[seg.col])
			} else {
				b.WriteString(vals[seg.ref].str)
			}
		case seg.isIndex:
			n := i + seg.base
			if seg.pad != "" {
				fmt.Fprintf(&b, seg.pad, n)
			} else {
				b.WriteString(strconv.Itoa(n))
			}
		default:
			b.WriteString(seg.lit)
		}
	}
	return b.String()
}
