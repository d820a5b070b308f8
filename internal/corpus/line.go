package corpus

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
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
// docDecoder has a fast path for the line shape WriteNDJSON writes and
// hands every other line to encoding/json, which stays the reference: a
// line decodes to exactly the Doc, or fails with exactly the error, that
// json.Unmarshal gives. The fast path takes a line made only of the keys
// filename, text and truth, each at most once, spelled exactly and in
// any order. The filename and text may be any JSON strings; they decode
// as encoding/json decodes them. The truth must be null or byte for byte
// what the corpus writer (jsonWriter's appendTruth) writes for the truth
// it decodes to: members in Truth's field order, none of them empty;
// both members of a mention, kind then fields; map keys strictly
// increasing; no whitespace; strings escaped exactly as AppendString
// escapes them and numbers written exactly as AppendFloat writes them.
//
// So the fast path renders nothing. Its one output is the filename, the
// text and the truth packed (see Truth) as a copy of the truth's bytes
// on the line, with no map built. A scan's records (DocReader's
// NextRecord), a folder sidecar's truths and the cluster wire's records
// keep it packed; a Doc gets its maps from the packed string, through
// the one builder TruthOf uses.

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

// span is the byte range [lo, hi) of a docDecoder's string buffer, or a
// run of its entries.
type span struct{ lo, hi int }

// docDecoder decodes corpus lines. Parsing copies every unescaped string
// of a line into buf and records where it went, and notes the bytes the
// truth takes; parts then makes two strings per document. Filename and
// Text are substrings of the first, and the packed truth is the second,
// a copy of the truth's bytes: a record derived downstream may keep the
// truth and drop the text, and a truth cut from the text's string would
// keep all of it alive. buf and entries are reused from line to line.
type docDecoder struct {
	raw []byte
	pos int
	buf []byte
	// entries are the elements of a wire record's string lists.
	entries []span

	filename, text span
	// truth is the bytes of raw the truth takes, nil for none or null.
	truth []byte
}

// of returns the text of sp from s, a string made of buf[base:].
func (sp span) of(s string, base int) string { return s[sp.lo-base : sp.hi-base] }

// decode decodes one corpus line into a Doc, whose truth holds maps: a
// fast-path line's packed truth, materialized by the builder TruthOf
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

// line decodes a fast-path corpus line into its filename, text and
// packed truth (nil for a null one), or reports false for any other line.
func (d *docDecoder) line(raw []byte) (filename, text string, t *Truth, ok bool) {
	d.reset(raw, 0)
	ok = d.doc()
	d.raw = nil
	if !ok {
		return "", "", nil, false
	}
	filename, text, t = d.parts()
	return filename, text, t, true
}

// DecodeTruths decodes a ground-truth sidecar, a JSON array of
// {"filename", "truth"} objects, into Docs without text whose truths are
// packed (see Truth), each a copy of its bytes in raw. It takes the
// decoder's fast path, with the keys filename and truth only, and reports
// false for anything else: a text or unknown key, a null element, or a
// truth in other bytes than the corpus writer's, such as an indented one.
// The caller then decodes the bytes with encoding/json, which stays the
// reference. AppendTruths writes what it takes.
func DecodeTruths(raw []byte) ([]Doc, bool) {
	var d docDecoder
	d.reset(raw, 0)
	if !d.lit("[") {
		return nil, false
	}
	out := []Doc{}
	for more := !d.lit("]"); more; {
		d.reset(raw, d.pos)
		if !d.object(entryKeys) {
			return nil, false
		}
		filename, _, t := d.parts()
		out = append(out, Doc{Filename: filename, Truth: t})
		var ok bool
		if more, ok = d.sep("]"); !ok {
			return nil, false
		}
	}
	return out, d.end()
}

// AppendTruths appends docs' filenames and truths to dst as a
// ground-truth sidecar that DecodeTruths takes whole: a JSON array with
// one {"filename", "truth"} object per line, each truth in the corpus
// writer's bytes. It reports false when a truth number is NaN or
// infinite, which JSON cannot carry.
func AppendTruths(dst []byte, docs []*Doc) ([]byte, bool) {
	var w jsonWriter
	dst = append(dst, '[')
	for i, d := range docs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(append(dst, "\n{\"filename\":"...), d.Filename, false)
		var ok bool
		if dst, ok = w.appendTruth(append(dst, `,"truth":`...), d.Truth); !ok {
			return dst, false
		}
		dst = append(dst, '}')
	}
	return append(dst, "\n]\n"...), true
}

// reset clears the state of the last document decoded, keeping the
// reused buffers, to decode the document that starts at raw[pos:].
func (d *docDecoder) reset(raw []byte, pos int) {
	*d = docDecoder{raw: raw, pos: pos, buf: d.buf[:0], entries: d.entries[:0]}
}

// parts returns the filename, text and packed truth (nil for none or a
// null one) of the document parsed last.
func (d *docDecoder) parts() (filename, text string, t *Truth) {
	s := string(d.buf)
	return d.filename.of(s, 0), d.text.of(s, 0), d.packed()
}

// packed returns the truth parsed last, packed as a copy of its bytes, or
// nil for none or a null one.
func (d *docDecoder) packed() *Truth {
	if d.truth == nil {
		return nil
	}
	return &Truth{packed: string(d.truth)}
}

// Keys of the objects with fixed fields, for field.
var (
	docKeys   = []string{"filename", "text", "truth"}
	entryKeys = []string{"filename", "truth"}
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
	if !d.lit("{") {
		return false
	}
	for more := !d.lit("}"); more; {
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
		if more, ok = d.sep("}"); !ok {
			return false
		}
	}
	return true
}

// truthValue parses a truth, or null. It takes a truth only in the
// bytes jsonWriter.appendTruth writes for it and notes them in d.truth;
// null leaves d.truth nil.
func (d *docDecoder) truthValue() bool {
	if d.lit("null") {
		return true
	}
	lo, n := d.pos, len(d.buf)
	ok := d.exactTruth()
	d.buf = d.buf[:n] // the truth's strings are not kept
	d.truth = d.raw[lo:d.pos]
	return ok
}

// The exact parsers below take a value only in the bytes the corpus
// writer writes for it: no whitespace, and its escapes and number format.

// truthMembers are a truth's members in the order appendTruth writes
// them, each with the parser of its value. The writer leaves an empty
// member out.
var truthMembers = [...]struct {
	key   string
	value func(*docDecoder) bool
}{
	{`"topics":`, func(d *docDecoder) bool { return d.exactList((*docDecoder).exactString) }},
	{`"mentions":`, func(d *docDecoder) bool { return d.exactList((*docDecoder).exactMention) }},
	{`"labels":`, func(d *docDecoder) bool { return d.exactObject((*docDecoder).exactBool) > 0 }},
	{`"fields":`, func(d *docDecoder) bool { return d.exactObject((*docDecoder).exactString) > 0 }},
	{`"numbers":`, func(d *docDecoder) bool { return d.exactObject((*docDecoder).exactNumber) > 0 }},
}

// exactTruth parses a truth object.
func (d *docDecoder) exactTruth() bool {
	if !d.has("{") {
		return false
	}
	first := true
	for _, m := range truthMembers {
		at := d.pos
		if !(first || d.has(",")) || !d.has(m.key) {
			d.pos = at
			continue
		}
		if !m.value(d) {
			return false
		}
		first = false
	}
	return d.has("}")
}

// exactMention parses a mention: its kind, then its fields, null or an
// object that may be empty.
func (d *docDecoder) exactMention() bool {
	return d.has(`{"kind":`) && d.exactString() && d.has(`,"fields":`) &&
		(d.has("null") || d.exactObject((*docDecoder).exactString) >= 0) && d.has("}")
}

// exactList parses a non-empty array whose elements elem parses.
func (d *docDecoder) exactList(elem func(*docDecoder) bool) bool {
	if !d.has("[") {
		return false
	}
	for more := true; more; more = d.has(",") {
		if !elem(d) {
			return false
		}
	}
	return d.has("]")
}

// exactObject parses an object whose keys strictly increase, as the
// writer sorts a map's, and whose values value parses. It returns the
// number of members, or -1.
func (d *docDecoder) exactObject(value func(*docDecoder) bool) int {
	if !d.has("{") {
		return -1
	}
	if d.has("}") {
		return 0
	}
	n, prev := 0, span{}
	for more := true; more; more = d.has(",") {
		k, ok := d.quoted(true)
		if !ok || n > 0 && bytes.Compare(d.buf[prev.lo:prev.hi], d.buf[k.lo:k.hi]) >= 0 || !d.has(":") || !value(d) {
			return -1
		}
		n, prev = n+1, k
	}
	if !d.has("}") {
		return -1
	}
	return n
}

func (d *docDecoder) exactString() bool {
	_, ok := d.quoted(true)
	return ok
}

func (d *docDecoder) exactBool() bool { return d.has("true") || d.has("false") }

// exactNumber parses a number that AppendFloat writes as it stands.
func (d *docDecoder) exactNumber() bool {
	lo := d.pos
	for d.pos < len(d.raw) && numberByte[d.raw[d.pos]] {
		d.pos++
	}
	lit := d.raw[lo:d.pos]
	x, err := strconv.ParseFloat(string(lit), 64)
	var b [32]byte
	w, ok := AppendFloat(b[:0], x)
	return err == nil && ok && string(w) == string(lit)
}

// numberByte marks the bytes AppendFloat writes.
var numberByte = func() (t [256]bool) {
	for _, c := range []byte("+-.0123456789e") {
		t[c] = true
	}
	return t
}()

// strings parses an array of strings.
func (d *docDecoder) strings() (span, bool) {
	l := span{lo: len(d.entries)}
	if !d.lit("[") {
		return l, false
	}
	for more := !d.lit("]"); more; {
		v, ok := d.str()
		if !ok {
			return l, false
		}
		d.entries = append(d.entries, v)
		if more, ok = d.sep("]"); !ok {
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

// sep consumes the ',' before another element (more) or the closing
// delimiter c.
func (d *docDecoder) sep(c string) (more, ok bool) {
	if d.lit(",") {
		return true, true
	}
	return false, d.lit(c)
}

// lit consumes the literal s after optional whitespace.
func (d *docDecoder) lit(s string) bool {
	d.ws()
	return d.has(s)
}

// has consumes s if the input goes on with it.
func (d *docDecoder) has(s string) bool {
	if len(d.raw)-d.pos >= len(s) && string(d.raw[d.pos:d.pos+len(s)]) == s {
		d.pos += len(s)
		return true
	}
	return false
}

// key parses an object key and its colon.
func (d *docDecoder) key() (span, bool) {
	k, ok := d.str()
	return k, ok && d.lit(":")
}

// plain marks the bytes a JSON string holds unescaped and that need no
// UTF-8 check: ASCII other than control characters, '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str parses a string and appends its unescaped bytes to buf. It
// decodes as encoding/json does: an invalid UTF-8 byte, or a \u escape
// of a UTF-16 surrogate outside a pair, to U+FFFD.
func (d *docDecoder) str() (span, bool) {
	d.ws()
	return d.quoted(false)
}

// quoted is str without leading whitespace. If exact, it takes a string
// only in the bytes AppendString writes for what it decodes to.
func (d *docDecoder) quoted(exact bool) (span, bool) {
	if !d.has(`"`) {
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
		at, n := d.pos, len(d.buf)
		switch c := d.raw[d.pos]; {
		case c == '"':
			d.pos++
			return span{lo, len(d.buf)}, true
		case c == '\\':
			if !d.escape() {
				return span{}, false
			}
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.raw[d.pos:])
			d.buf = utf8.AppendRune(d.buf, r)
			d.pos += size
		default:
			return span{}, false
		}
		if exact && !written(d.raw[at:d.pos], d.buf[n:]) {
			return span{}, false
		}
	}
}

// written reports whether raw, a piece of a JSON string that decodes to
// s, is what AppendString writes for s.
func written(raw, s []byte) bool {
	var b [16]byte
	w := AppendBytes(b[:0], s, false)
	return string(w[1:len(w)-1]) == string(raw)
}

// escape decodes the escape sequence at pos into buf: a surrogate pair
// of \u escapes to one rune, and any other surrogate to U+FFFD.
func (d *docDecoder) escape() bool {
	if len(d.raw)-d.pos < 2 {
		return false
	}
	c := d.raw[d.pos+1]
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
		r := hex4(d.raw[d.pos:])
		if r < 0 {
			return false
		}
		d.pos += 4
		if utf16.IsSurrogate(r) {
			if r = utf16.DecodeRune(r, hex4(d.raw[d.pos+2:])); r != utf8.RuneError {
				d.pos += 6
			}
		}
		d.buf = utf8.AppendRune(d.buf, r)
	default:
		return false
	}
	d.pos += 2
	return true
}

// hex4 returns the UTF-16 code unit of the \u escape b starts with, or
// -1 if b starts with none.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, h := range b[2:6] {
		switch {
		case '0' <= h && h <= '9':
			h -= '0'
		case 'a' <= h && h <= 'f':
			h -= 'a' - 10
		case 'A' <= h && h <= 'F':
			h -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(h)
	}
	return r
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
