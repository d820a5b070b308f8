package corpus

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The corpus line: this file owns how NDJSON corpus bytes become
// documents. lineReader splits a stream into lines and tracks where each
// one sits on disk; docDecoder turns one line into a Doc. DocReader,
// IndexNDJSON and ValidateNDJSON all read corpus lines through both, so
// the reader, the partition index and the validator agree on every line.
// A folder's ground-truth sidecar, an array of filename and truth
// objects, decodes through the same parser (DecodeTruths), and so does
// each record's truth on the cluster wire (RecordsDecoder).
//
// docDecoder has a fast path for the canonical line shape — what
// WriteNDJSON writes — and hands every other line to encoding/json, which
// stays the reference: a line decodes to exactly the Doc, or fails with
// exactly the error, that json.Unmarshal gives. The fast path takes a
// line made only of the keys filename, text and truth (truth's topics,
// mentions, labels, fields and numbers; a mention's kind and fields),
// each at most once, spelled exactly, with a truth object after the
// filename and text, no nulls except a null truth and a mention's null
// fields, no empty truth member ("labels":{}, which the writer leaves
// out), and strings that are valid UTF-8 without \u surrogate escapes.
// Its numbers must parse with strconv.ParseFloat.
//
// The fast path has one output: the filename, the text and the truth
// packed (see Truth), rendered from the parsed spans as the corpus writer
// would, with no map built. A scan's records (DocReader's NextRecord), a
// folder sidecar's truths and the cluster wire's records keep it packed;
// a Doc gets its maps from the packed string, through the one builder
// TruthOf uses.

// lineReader splits an NDJSON stream into lines and counts each line's
// true length on disk, terminator included. bufio.ScanLines strips a
// "\r\n" as well as a "\n", so the length of the returned bytes alone
// undercounts CRLF lines.
type lineReader struct {
	sc *bufio.Scanner
	// line is the 1-based number of the last line read, empty ones
	// included.
	line int
	// start and end are the byte offsets at which the last line read
	// begins and just past its terminator; at end of input, end is the
	// stream's size.
	start, end int64
	// size is the on-disk length of the token the scanner produced last.
	size int
}

func newLineReader(rd io.Reader) *lineReader {
	lr := &lineReader{sc: bufio.NewScanner(rd)}
	lr.sc.Buffer(make([]byte, 64<<10), maxNDJSONLine)
	lr.sc.Split(lr.split)
	return lr
}

// split is bufio.ScanLines, noting how many bytes each line took.
func (lr *lineReader) split(data []byte, atEOF bool) (int, []byte, error) {
	advance, token, err := bufio.ScanLines(data, atEOF)
	if token != nil {
		lr.size = advance
	}
	return advance, token, err
}

// next returns the next non-empty line, valid until the following call,
// or false at end of input or on a read error (see err).
func (lr *lineReader) next() ([]byte, bool) {
	for lr.sc.Scan() {
		lr.line++
		lr.start = lr.end
		lr.end += int64(lr.size)
		if raw := lr.sc.Bytes(); len(raw) > 0 {
			return raw, true
		}
	}
	return nil, false
}

func (lr *lineReader) err() error { return lr.sc.Err() }

// span is the byte range [lo, hi) of a docDecoder's string buffer.
type span struct{ lo, hi int }

// entry is one decoded list element (val) or map member (key, val, or
// key and flag for a bool map). Number values are spans too: their
// literal is copied to the buffer and parsed when the Doc is built.
type entry struct {
	key, val span
	flag     bool
}

// list is a run of decoded elements: entries[lo:hi], or mentions[lo:hi]
// for truth.mentions. set records that the member was present, because
// encoding/json decodes "[]" and "{}" to empty, non-nil values.
type list struct {
	lo, hi int
	set    bool
}

type mentionShape struct {
	kind   span
	fields list
}

// Kinds of map value members decodes.
const (
	boolValues = iota
	stringValues
	numberValues
)

// truthShape locates a parsed truth object: set reports one was read
// (not null), and its strings fill buf from lo on.
type truthShape struct {
	set                                       bool
	lo                                        int
	topics, mentionList, labels, fields, nums list
}

// docDecoder decodes corpus lines. Parsing copies every unescaped string
// of a line into buf and records where it went; parts then turns buf into
// two strings per document. Filename and Text are substrings of the
// first, and the truth is packed into the second: a record derived
// downstream may keep the truth and drop the text, and a truth cut from
// the text's string would keep all of it alive. buf and the span tables
// are reused from line to line.
type docDecoder struct {
	raw []byte
	pos int
	buf []byte

	entries  []entry
	mentions []mentionShape

	filename, text span
	truth          truthShape

	// out is scratch for rendering a packed truth.
	out []byte
}

// of returns the text of sp from s, a string made of buf[base:].
func (sp span) of(s string, base int) string { return s[sp.lo-base : sp.hi-base] }

// decode decodes one corpus line into a Doc, whose truth holds maps: a
// canonical line's packed truth, materialized by the builder TruthOf
// uses.
func (d *docDecoder) decode(raw []byte) (*Doc, error) {
	if filename, text, t, ok := d.line(raw); ok {
		return &Doc{Filename: filename, Text: text, Truth: t.View().truth()}, nil
	}
	doc := new(Doc)
	if err := json.Unmarshal(raw, doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// line decodes a canonical corpus line into its filename, text and packed
// truth (nil for a null one), or reports false for any other line.
func (d *docDecoder) line(raw []byte) (filename, text string, t *Truth, ok bool) {
	d.reset(raw, 0)
	ok = d.doc()
	d.raw = nil
	if !ok {
		return "", "", nil, false
	}
	return d.parts()
}

// DecodeTruths decodes a ground-truth sidecar, a JSON array of
// {"filename", "truth"} objects, into Docs without text whose truths are
// packed (see Truth). It takes the decoder's fast path, with the keys
// filename and truth only, and reports false for anything else: a text
// or unknown key, a null element, or input outside the canonical line
// shape. The caller then decodes the bytes with encoding/json, which
// stays the reference.
func DecodeTruths(raw []byte) ([]Doc, bool) {
	var d docDecoder
	d.reset(raw, 0)
	if !d.eat('[') {
		return nil, false
	}
	out := []Doc{}
	for more := !d.eat(']'); more; {
		d.reset(raw, d.pos)
		if !d.object(entryKeys) {
			return nil, false
		}
		filename, _, t, ok := d.parts()
		if !ok {
			return nil, false
		}
		out = append(out, Doc{Filename: filename, Truth: t})
		if more, ok = d.sep(']'); !ok {
			return nil, false
		}
	}
	return out, d.end()
}

// reset clears the state of the last document decoded, keeping the
// reused buffers, to decode the document that starts at raw[pos:].
func (d *docDecoder) reset(raw []byte, pos int) {
	*d = docDecoder{raw: raw, pos: pos, buf: d.buf[:0], entries: d.entries[:0], mentions: d.mentions[:0], out: d.out}
}

// parts returns the filename, text and packed truth (nil for a null one)
// of the document parsed last, or reports false.
func (d *docDecoder) parts() (filename, text string, t *Truth, ok bool) {
	tlo := len(d.buf)
	if d.truth.set {
		tlo = d.truth.lo
	}
	if d.filename.hi > tlo || d.text.hi > tlo {
		return "", "", nil, false // the truth object came first
	}
	if d.truth.set {
		if t, ok = d.packTruth(); !ok {
			return "", "", nil, false
		}
	}
	s := string(d.buf[:tlo])
	return d.filename.of(s, 0), d.text.of(s, 0), t, true
}

// packTruth packs the truth object parsed last. It reports false for a
// member that is present but empty: the writer leaves such a member out,
// so its packed form would read back nil where encoding/json gives an
// empty one, and the line takes the fallback.
func (d *docDecoder) packTruth() (*Truth, bool) {
	ts := &d.truth
	for _, l := range [...]list{ts.topics, ts.mentionList, ts.labels, ts.fields, ts.nums} {
		if l.set && l.hi == l.lo {
			return nil, false
		}
	}
	var ok bool
	if d.out, ok = d.appendTruth(d.out[:0]); !ok {
		return nil, false
	}
	return &Truth{packed: string(d.out)}, true
}

// appendTruth appends the truth object parsed last as jsonWriter's
// appendTruth appends the Truth encoding/json decodes it to: map members
// in key order, a repeated key's last value only, and numbers in
// AppendFloat's format. It reports false for a number strconv.ParseFloat
// rejects.
func (d *docDecoder) appendTruth(dst []byte) ([]byte, bool) {
	ts := &d.truth
	dst = append(dst, '{')
	if ts.topics.set {
		dst = d.appendStrings(member(dst, `"topics":`), ts.topics)
	}
	if ts.mentionList.set {
		dst = member(dst, `"mentions":[`)
		for i, m := range d.mentions[ts.mentionList.lo:ts.mentionList.hi] {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendBytes(append(dst, `{"kind":`...), d.buf[m.kind.lo:m.kind.hi], false)
			dst = append(dst, `,"fields":`...)
			if m.fields.set {
				dst, _ = d.appendMembers(dst, m.fields, stringValues)
			} else {
				dst = append(dst, "null"...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if ts.labels.set {
		dst, _ = d.appendMembers(member(dst, `"labels":`), ts.labels, boolValues)
	}
	if ts.fields.set {
		dst, _ = d.appendMembers(member(dst, `"fields":`), ts.fields, stringValues)
	}
	if ts.nums.set {
		var ok bool
		if dst, ok = d.appendMembers(member(dst, `"numbers":`), ts.nums, numberValues); !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

// appendStrings appends the parsed array of strings l.
func (d *docDecoder) appendStrings(dst []byte, l list) []byte {
	dst = append(dst, '[')
	for i, e := range d.entries[l.lo:l.hi] {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendBytes(dst, d.buf[e.val.lo:e.val.hi], false)
	}
	return append(dst, ']')
}

// appendMembers appends the parsed object l, whose values are of the
// given kind, as the writer appends the map it decodes to. It sorts l's
// entries in place. It reports false for a number strconv.ParseFloat
// rejects, a repeated key's earlier value among them, as json.Unmarshal
// does.
func (d *docDecoder) appendMembers(dst []byte, l list, kind int) ([]byte, bool) {
	es := d.entries[l.lo:l.hi]
	key := func(e entry) []byte { return d.buf[e.key.lo:e.key.hi] }
	slices.SortStableFunc(es, func(a, b entry) int { return bytes.Compare(key(a), key(b)) })
	dst = append(dst, '{')
	first := true
	for i, e := range es {
		var x float64
		if kind == numberValues {
			var err error
			if x, err = strconv.ParseFloat(string(d.buf[e.val.lo:e.val.hi]), 64); err != nil {
				return dst, false
			}
		}
		if i+1 < len(es) && bytes.Equal(key(e), key(es[i+1])) {
			continue // a later value replaces this one
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(AppendBytes(dst, key(e), false), ':')
		switch kind {
		case boolValues:
			dst = strconv.AppendBool(dst, e.flag)
		case stringValues:
			dst = AppendBytes(dst, d.buf[e.val.lo:e.val.hi], false)
		default:
			// ParseFloat gives no NaN or infinity for a JSON number.
			dst, _ = AppendFloat(dst, x)
		}
	}
	return append(dst, '}'), true
}

// Keys of the objects with fixed fields, for field.
var (
	docKeys     = []string{"filename", "text", "truth"}
	entryKeys   = []string{"filename", "truth"}
	truthKeys   = []string{"topics", "mentions", "labels", "fields", "numbers"}
	mentionKeys = []string{"kind", "fields"}
)

// doc parses a corpus line: one document object and nothing after it
// but whitespace.
func (d *docDecoder) doc() bool {
	return d.object(docKeys) && d.end()
}

// end reports whether only whitespace is left of the input.
func (d *docDecoder) end() bool {
	d.ws()
	return d.pos == len(d.raw)
}

// object parses a document object whose keys are among names.
func (d *docDecoder) object(names []string) bool {
	var seen uint8
	if !d.eat('{') {
		return false
	}
	for more := !d.eat('}'); more; {
		var ok bool
		switch d.field(names, &seen) {
		case "filename":
			d.filename, ok = d.str()
		case "text":
			d.text, ok = d.str()
		case "truth":
			ok = d.truthValue()
		}
		if !ok {
			return false
		}
		if more, ok = d.sep('}'); !ok {
			return false
		}
	}
	return true
}

// truthValue parses a truth object, or null, into d.truth.
func (d *docDecoder) truthValue() bool {
	if d.lit("null") {
		return true
	}
	ts := &d.truth
	ts.set, ts.lo = true, len(d.buf)
	var seen uint8
	if !d.eat('{') {
		return false
	}
	for more := !d.eat('}'); more; {
		var ok bool
		switch d.field(truthKeys, &seen) {
		case "topics":
			ts.topics, ok = d.strings()
		case "mentions":
			ts.mentionList, ok = d.mentionValues()
		case "labels":
			ts.labels, ok = d.members(boolValues)
		case "fields":
			ts.fields, ok = d.members(stringValues)
		case "numbers":
			ts.nums, ok = d.members(numberValues)
		}
		if !ok {
			return false
		}
		if more, ok = d.sep('}'); !ok {
			return false
		}
	}
	return true
}

func (d *docDecoder) mentionValues() (list, bool) {
	l := list{lo: len(d.mentions), set: true}
	if !d.eat('[') {
		return l, false
	}
	for more := !d.eat(']'); more; {
		m, ok := d.mention()
		if !ok {
			return l, false
		}
		d.mentions = append(d.mentions, m)
		if more, ok = d.sep(']'); !ok {
			return l, false
		}
	}
	l.hi = len(d.mentions)
	return l, true
}

func (d *docDecoder) mention() (mentionShape, bool) {
	// A mention without a kind has an empty one, inside the truth string.
	m := mentionShape{kind: span{len(d.buf), len(d.buf)}}
	var seen uint8
	if !d.eat('{') {
		return m, false
	}
	for more := !d.eat('}'); more; {
		var ok bool
		switch d.field(mentionKeys, &seen) {
		case "kind":
			m.kind, ok = d.str()
		case "fields":
			// A null leaves fields unset, which packs as null.
			if ok = d.lit("null"); !ok {
				m.fields, ok = d.members(stringValues)
			}
		}
		if !ok {
			return m, false
		}
		if more, ok = d.sep('}'); !ok {
			return m, false
		}
	}
	return m, true
}

// strings parses an array of strings.
func (d *docDecoder) strings() (list, bool) {
	l := list{lo: len(d.entries), set: true}
	if !d.eat('[') {
		return l, false
	}
	for more := !d.eat(']'); more; {
		v, ok := d.str()
		if !ok {
			return l, false
		}
		d.entries = append(d.entries, entry{val: v})
		if more, ok = d.sep(']'); !ok {
			return l, false
		}
	}
	l.hi = len(d.entries)
	return l, true
}

// members parses an object whose values are all of one kind. A repeated
// key is kept: the Doc's map keeps its last value, as encoding/json's does.
func (d *docDecoder) members(kind int) (list, bool) {
	l := list{lo: len(d.entries), set: true}
	if !d.eat('{') {
		return l, false
	}
	for more := !d.eat('}'); more; {
		k, ok := d.key()
		if !ok {
			return l, false
		}
		e := entry{key: k}
		switch kind {
		case boolValues:
			e.flag = d.lit("true")
			ok = e.flag || d.lit("false")
		case stringValues:
			e.val, ok = d.str()
		default:
			e.val, ok = d.number()
		}
		if !ok {
			return l, false
		}
		d.entries = append(d.entries, e)
		if more, ok = d.sep('}'); !ok {
			return l, false
		}
	}
	l.hi = len(d.entries)
	return l, true
}

// field parses a struct key and its colon and returns the key. It
// returns "" for a key that is not one of names, or that seen marks as
// already read; encoding/json would match a key case-insensitively and
// merge a repeated one, so such lines take the fallback.
func (d *docDecoder) field(names []string, seen *uint8) string {
	k, ok := d.key()
	key := d.buf[k.lo:k.hi]
	d.buf = d.buf[:k.lo]
	if !ok {
		return ""
	}
	for i, name := range names {
		if string(key) == name && *seen&(1<<i) == 0 {
			*seen |= 1 << i
			return name
		}
	}
	return ""
}

func (d *docDecoder) ws() {
	for d.pos < len(d.raw) {
		switch d.raw[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace.
func (d *docDecoder) eat(c byte) bool {
	d.ws()
	if d.pos < len(d.raw) && d.raw[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// sep consumes the ',' before another element (more) or the closing
// delimiter c.
func (d *docDecoder) sep(c byte) (more, ok bool) {
	if d.eat(',') {
		return true, true
	}
	return false, d.eat(c)
}

// lit consumes the literal s.
func (d *docDecoder) lit(s string) bool {
	d.ws()
	if len(d.raw)-d.pos >= len(s) && string(d.raw[d.pos:d.pos+len(s)]) == s {
		d.pos += len(s)
		return true
	}
	return false
}

// key parses an object key and its colon.
func (d *docDecoder) key() (span, bool) {
	k, ok := d.str()
	return k, ok && d.eat(':')
}

// plain marks the bytes a JSON string holds unescaped and that need no
// UTF-8 check: ASCII other than control characters, '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str parses a string and appends its unescaped bytes to buf.
func (d *docDecoder) str() (span, bool) {
	if !d.eat('"') {
		return span{}, false
	}
	lo := len(d.buf)
	for {
		start := d.pos
		for d.pos < len(d.raw) && plain[d.raw[d.pos]] {
			d.pos++
		}
		d.buf = append(d.buf, d.raw[start:d.pos]...)
		if d.pos == len(d.raw) {
			return span{}, false
		}
		switch c := d.raw[d.pos]; {
		case c == '"':
			d.pos++
			return span{lo, len(d.buf)}, true
		case c == '\\':
			if !d.escape() {
				return span{}, false
			}
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(d.raw[d.pos:])
			if r == utf8.RuneError && n == 1 {
				return span{}, false
			}
			d.buf = append(d.buf, d.raw[d.pos:d.pos+n]...)
			d.pos += n
		default:
			return span{}, false
		}
	}
}

// escape decodes the escape sequence at pos into buf.
func (d *docDecoder) escape() bool {
	if len(d.raw)-d.pos < 2 {
		return false
	}
	c := d.raw[d.pos+1]
	d.pos += 2
	switch c {
	case '"', '\\', '/':
		d.buf = append(d.buf, c)
	case 'b':
		d.buf = append(d.buf, '\b')
	case 'f':
		d.buf = append(d.buf, '\f')
	case 'n':
		d.buf = append(d.buf, '\n')
	case 'r':
		d.buf = append(d.buf, '\r')
	case 't':
		d.buf = append(d.buf, '\t')
	case 'u':
		if len(d.raw)-d.pos < 4 {
			return false
		}
		var r rune
		for _, h := range d.raw[d.pos : d.pos+4] {
			switch {
			case '0' <= h && h <= '9':
				h -= '0'
			case 'a' <= h && h <= 'f':
				h -= 'a' - 10
			case 'A' <= h && h <= 'F':
				h -= 'A' - 10
			default:
				return false
			}
			r = r<<4 | rune(h)
		}
		if utf16.IsSurrogate(r) {
			return false
		}
		d.pos += 4
		d.buf = utf8.AppendRune(d.buf, r)
	default:
		return false
	}
	return true
}

// number checks the JSON number grammar and copies the literal to buf.
func (d *docDecoder) number() (span, bool) {
	d.ws()
	i, n := d.pos, len(d.raw)
	if i < n && d.raw[i] == '-' {
		i++
	}
	switch {
	case i < n && d.raw[i] == '0':
		i++
	case i < n && '1' <= d.raw[i] && d.raw[i] <= '9':
		i = d.digits(i)
	default:
		return span{}, false
	}
	if i < n && d.raw[i] == '.' {
		j := d.digits(i + 1)
		if j == i+1 {
			return span{}, false
		}
		i = j
	}
	if i < n && (d.raw[i] == 'e' || d.raw[i] == 'E') {
		i++
		if i < n && (d.raw[i] == '+' || d.raw[i] == '-') {
			i++
		}
		j := d.digits(i)
		if j == i {
			return span{}, false
		}
		i = j
	}
	lo := len(d.buf)
	d.buf = append(d.buf, d.raw[d.pos:i]...)
	d.pos = i
	return span{lo, len(d.buf)}, true
}

// digits returns the end of the run of decimal digits starting at i.
func (d *docDecoder) digits(i int) int {
	for i < len(d.raw) && '0' <= d.raw[i] && d.raw[i] <= '9' {
		i++
	}
	return i
}
