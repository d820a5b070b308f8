package corpus

import (
	"encoding/base64"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The truth shape's writer: this file appends, without reflection, the
// bytes a json.Encoder with SetEscapeHTML(false) writes for a corpus line
// (WriteNDJSON) and for the records of the cluster wire (RecordEncoder),
// and the truths of a folder's sidecar (AppendTruths): sorted map keys,
// omitempty as Truth's tags say, encoding/json's float format and string
// escapes. docDecoder reads all three back and packs a truth only when it
// is in these bytes, so jsonWriter is the one code that renders a truth.
// A value the writer does not cover makes it decline: NaN or an
// infinity, which encoding/json cannot encode either, or a field value of
// a Go type record.New does not store. The caller then fails;
// encoding/json stays the reference in the tests. AppendString and
// AppendFloat are also the HTTP responses' string escaper (with HTML
// escaping on) and number format (internal/serve), so one escaper owns
// the JSON strings on disk, on the wire and over HTTP.

// jsonWriter appends JSON. keys is scratch for sorting one map's keys.
type jsonWriter struct{ keys []string }

// sorted returns m's keys in the order encoding/json writes them, in
// scratch that the next call reuses.
func sorted[V any](keys *[]string, m map[string]V) []string {
	*keys = (*keys)[:0]
	for k := range m {
		*keys = append(*keys, k)
	}
	slices.Sort(*keys)
	return *keys
}

// appendDoc appends d as one corpus line.
func (w *jsonWriter) appendDoc(dst []byte, d *Doc) ([]byte, bool) {
	dst = append(dst, `{"filename":`...)
	dst = AppendString(dst, d.Filename, false)
	dst = append(dst, `,"text":`...)
	dst = AppendString(dst, d.Text, false)
	dst = append(dst, `,"truth":`...)
	dst, ok := w.appendTruth(dst, d.Truth)
	return append(dst, '}', '\n'), ok
}

// appendTruth appends t, or null for a nil t: a packed truth's string
// as is.
func (w *jsonWriter) appendTruth(dst []byte, t *Truth) ([]byte, bool) {
	switch {
	case t == nil:
		return append(dst, "null"...), true
	case t.packed != "":
		return append(dst, t.packed...), true
	}
	dst = append(dst, '{')
	if len(t.Topics) > 0 {
		dst = member(dst, `"topics":[`)
		for i, topic := range t.Topics {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendString(dst, topic, false)
		}
		dst = append(dst, ']')
	}
	if len(t.Mentions) > 0 {
		dst = member(dst, `"mentions":[`)
		for i, m := range t.Mentions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"kind":`...)
			dst = AppendString(dst, m.Kind, false)
			dst = append(dst, `,"fields":`...)
			dst = append(w.appendStringMap(dst, m.Fields), '}')
		}
		dst = append(dst, ']')
	}
	if len(t.Labels) > 0 {
		dst = member(dst, `"labels":{`)
		for i, k := range sorted(&w.keys, t.Labels) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(AppendString(dst, k, false), ':')
			dst = strconv.AppendBool(dst, t.Labels[k])
		}
		dst = append(dst, '}')
	}
	if len(t.Fields) > 0 {
		dst = w.appendStringMap(member(dst, `"fields":`), t.Fields)
	}
	if len(t.Numbers) > 0 {
		dst = member(dst, `"numbers":{`)
		for i, k := range sorted(&w.keys, t.Numbers) {
			if i > 0 {
				dst = append(dst, ',')
			}
			var ok bool
			if dst, ok = AppendFloat(append(AppendString(dst, k, false), ':'), t.Numbers[k]); !ok {
				return dst, false
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), true
}

// member appends key, the start of a member of the object dst ends in,
// after a comma unless it is the object's first.
func member(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

// appendStringMap appends m, or null for a nil m.
func (w *jsonWriter) appendStringMap(dst []byte, m map[string]string) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '{')
	for i, k := range sorted(&w.keys, m) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(AppendString(dst, k, false), ':')
		dst = AppendString(dst, m[k], false)
	}
	return append(dst, '}')
}

// appendValue appends a field value of one of the Go types record.New
// stores, or reports false for any other.
func appendValue(dst []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), true
	case string:
		return AppendString(dst, x, false), true
	case int64:
		return strconv.AppendInt(dst, x, 10), true
	case float64:
		return AppendFloat(dst, x)
	case bool:
		return strconv.AppendBool(dst, x), true
	case []string:
		if x == nil {
			return append(dst, "null"...), true
		}
		dst = append(dst, '[')
		for i, s := range x {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendString(dst, s, false)
		}
		return append(dst, ']'), true
	case []byte:
		if x == nil {
			return append(dst, "null"...), true
		}
		dst = base64.StdEncoding.AppendEncode(append(dst, '"'), x)
		return append(dst, '"'), true
	}
	return dst, false
}

// AppendFloat appends f in encoding/json's format: the shortest decimal
// that round-trips, in exponent form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent unpadded. NaN and the infinities have no
// JSON form.
func AppendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

const hexDigits = "0123456789abcdef"

// plainHTML is plain without '<', '>' and '&', which encoding/json
// escapes when HTML escaping is on.
var plainHTML = func() [256]bool {
	t := plain
	t['<'], t['>'], t['&'] = false, false, false
	return t
}()

// AppendString appends s as a JSON string, escaped as encoding/json does:
// '"', '\\' and control characters, invalid UTF-8 as \ufffd, and U+2028
// and U+2029, which JavaScript reads as line ends. With escapeHTML it
// also escapes '<', '>' and '&' as \u003c, \u003e and \u0026, as
// json.Marshal and a default json.Encoder do.
func AppendString(dst []byte, s string, escapeHTML bool) []byte {
	return appendString(dst, s, escapeHTML)
}

// AppendBytes appends b, taken as text, as AppendString appends a string.
func AppendBytes(dst []byte, b []byte, escapeHTML bool) []byte {
	return appendString(dst, b, escapeHTML)
}

// appendString is AppendString over the bytes of a string or a slice.
func appendString[T string | []byte](dst []byte, s T, escapeHTML bool) []byte {
	safe := &plain
	if escapeHTML {
		safe = &plainHTML
	}
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if safe[c] {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			r, n := decodeRune(s[i:])
			if r != '\u2028' && r != '\u2029' && (r != utf8.RuneError || n != 1) {
				i += n
				continue
			}
			dst = append(dst, s[start:i]...)
			if r == utf8.RuneError {
				dst = append(dst, `\ufffd`...)
			} else {
				dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			}
			i += n
			start = i
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		}
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// decodeRune is utf8.DecodeRune over a string or a slice.
func decodeRune[T string | []byte](s T) (rune, int) {
	switch x := any(s).(type) {
	case string:
		return utf8.DecodeRuneInString(x)
	default:
		return utf8.DecodeRune(x.([]byte))
	}
}
