package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/corpus"
	"repro/pz"
)

// Responses: this file writes, without reflection, the bytes encoding/json
// writes for the records of a query (RecordsJSON) and for the job
// envelope that carries them (JobView and []JobView through writeJSON):
// struct field order, omitempty as the tags say, encoding/json's float
// format, and its string escapes with HTML escaping on, through the
// corpus writer's escaper. Every other response goes through
// encoding/json, which also stays the reference in the tests.

// responseBuf is scratch for rendering one response: the bytes, a
// schema's slots in key order, and room to render a field's text in.
// Buffers are reused through responseBufs, so a response costs no
// allocation past its final copy.
type responseBuf struct {
	b       []byte
	order   []int
	scratch []byte
}

var responseBufs = sync.Pool{New: func() any { return new(responseBuf) }}

// maxPooledResponse bounds the buffer a responseBuf keeps for reuse; a
// rare huge response is not held on to after it is sent.
const maxPooledResponse = 1 << 20

func getResponseBuf() *responseBuf { return responseBufs.Get().(*responseBuf) }

func putResponseBuf(rb *responseBuf) {
	if cap(rb.b) <= maxPooledResponse {
		responseBufs.Put(rb)
	}
}

// writeJSON answers code with v as a json.Encoder writes it, trailing
// newline included. The body is rendered before the header is sent, so a
// value that cannot be encoded (a NaN or an infinite float) answers 500
// with an error body rather than code with no body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	rb := getResponseBuf()
	defer putResponseBuf(rb)
	body, err := rb.render(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = rb.render(map[string]string{"error": "serve: encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body) // a failed write means the client has gone; nothing is left to tell it
}

// render renders v into rb's buffer as json.NewEncoder(w).Encode(v)
// writes it. Job views take the appenders; anything else, and a view
// they decline, takes encoding/json.
func (rb *responseBuf) render(v any) ([]byte, error) {
	ok := false
	switch x := v.(type) {
	case JobView:
		rb.b, ok = appendJobView(rb.b[:0], &x)
	case []JobView:
		rb.b, ok = appendJobViews(rb.b[:0], x)
	}
	if ok {
		rb.b = append(rb.b, '\n')
		return rb.b, nil
	}
	buf := bytes.NewBuffer(rb.b[:0])
	err := json.NewEncoder(buf).Encode(v)
	rb.b = buf.Bytes()
	return rb.b, err
}

// appendJobViews appends views as a JSON array.
func appendJobViews(dst []byte, views []JobView) ([]byte, bool) {
	if views == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i := range views {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = appendJobView(dst, &views[i]); !ok {
			return dst, false
		}
	}
	return append(dst, ']'), true
}

// appendJobView appends v. It reports false where encoding/json fails: a
// result whose cost is NaN or infinite, or whose Records is empty but
// not nil.
func appendJobView(dst []byte, v *JobView) ([]byte, bool) {
	dst = corpus.AppendString(append(dst, `{"id":`...), v.ID, true)
	dst = corpus.AppendString(append(dst, `,"tenant":`...), v.Tenant, true)
	dst = corpus.AppendString(append(dst, `,"status":`...), v.Status, true)
	if v.Error != "" {
		dst = corpus.AppendString(append(dst, `,"error":`...), v.Error, true)
	}
	if v.Result != nil {
		var ok bool
		if dst, ok = appendQueryResult(append(dst, `,"result":`...), v.Result); !ok {
			return dst, false
		}
	}
	return append(dst, '}'), true
}

// appendQueryResult appends r. Its Records are spliced in as they are:
// they hold RecordsJSON's output, compact and HTML-escaped already, which
// encoding/json's re-compaction of a json.RawMessage leaves unchanged.
func appendQueryResult(dst []byte, r *QueryResult) ([]byte, bool) {
	switch {
	case r.Records == nil:
		dst = append(dst, `{"records":null`...)
	case len(r.Records) == 0:
		return dst, false
	default:
		dst = append(append(dst, `{"records":`...), r.Records...)
	}
	dst = strconv.AppendInt(append(dst, `,"count":`...), int64(r.Count), 10)
	dst = corpus.AppendString(append(dst, `,"plan":`...), r.Plan, true)
	dst = strconv.AppendBool(append(dst, `,"plan_cached":`...), r.PlanCached)
	dst = strconv.AppendInt(append(dst, `,"candidates":`...), int64(r.Candidates), 10)
	dst = corpus.AppendString(append(dst, `,"policy":`...), r.Policy, true)
	dst = strconv.AppendInt(append(dst, `,"elapsed_sim_ms":`...), r.ElapsedSimMS, 10)
	dst, ok := corpus.AppendFloat(append(dst, `,"cost_usd":`...), r.CostUSD)
	return append(dst, '}'), ok
}

// RecordsJSON renders records deterministically: one JSON object per
// record with the schema's fields as keys, in byte order, and each
// field's GetString text as its value. The bytes are what json.Marshal
// writes for the records as a []map[string]string, so equal record sets
// always render to identical bytes — the property the serving acceptance
// test uses to compare against direct Execute. The error is always nil.
func RecordsJSON(recs []*pz.Record) (json.RawMessage, error) {
	rb := getResponseBuf()
	defer putResponseBuf(rb)
	rb.b = rb.appendRecords(rb.b[:0], recs)
	return slices.Clone(rb.b), nil
}

// appendRecords appends recs as RecordsJSON renders them. Each field's
// text goes from its slot into dst: a string or bytes field as it is, any
// other rendered in rb's scratch first.
func (rb *responseBuf) appendRecords(dst []byte, recs []*pz.Record) []byte {
	var s *pz.Schema
	dst = append(dst, '[')
	for i, r := range recs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if r.Schema() != s {
			s = r.Schema()
			rb.order = s.AppendSlotsByName(rb.order[:0])
		}
		dst = append(dst, '{')
		for j, slot := range rb.order {
			if j > 0 {
				dst = append(dst, ',')
			}
			f := s.FieldAt(slot)
			dst = append(corpus.AppendString(dst, f.Name, true), ':')
			text, b := r.TextAt(slot, rb.scratch[:0])
			if b == nil {
				dst = corpus.AppendString(dst, text, true)
				continue
			}
			dst = corpus.AppendBytes(dst, b, true)
			if f.Type != pz.Bytes {
				rb.scratch = b // rendered into the scratch, which it may have grown
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}
