package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/pz"
)

// recordsJSONReference renders records as RecordsJSON did before its
// appender: a map per record, marshaled by encoding/json, which sorts the
// keys. It is the reference RecordsJSON must equal byte for byte.
func recordsJSONReference(recs []*pz.Record) (json.RawMessage, error) {
	out := make([]map[string]string, len(recs))
	for i, r := range recs {
		m := make(map[string]string, len(r.Schema().Fields()))
		for _, f := range r.Schema().Fields() {
			m[f.Name] = r.GetString(f.Name)
		}
		out[i] = m
	}
	return json.Marshal(out)
}

// encodeReference writes v as writeJSON did before the job envelope's
// appender: json.NewEncoder(w).Encode(v).
func encodeReference(v any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

// everyType has a field of every field type.
var everyType = schema.MustNew("Every", "every field type",
	schema.Field{Name: "filename", Type: schema.String, Desc: "a string"},
	schema.Field{Name: "contents", Type: schema.String, Desc: "a string"},
	schema.Field{Name: "count", Type: schema.Int, Desc: "an int"},
	schema.Field{Name: "ratio", Type: schema.Float, Desc: "a float"},
	schema.Field{Name: "urgent", Type: schema.Bool, Desc: "a bool"},
	schema.Field{Name: "tags", Type: schema.StringList, Desc: "a list"},
	schema.Field{Name: "blob", Type: schema.Bytes, Desc: "raw bytes"},
	schema.Field{Name: "Zeta", Type: schema.String, Desc: "sorts before the lower-case names"},
)

// edgeText holds what the escapers treat specially: HTML characters,
// quotes, control bytes, invalid UTF-8 and U+2028/U+2029.
const edgeText = "<a href=\"x?a=1&b=2\">&amp;</a> \u2028\u2029 \x00\x01\x1f\x7f \b\f\n\r\t \"q\" \\ /" +
	" bad \xff \xed\xa0\x80 \xf0\x9f \U0001F600 \ufffd \u00e9"

// domainRecords returns the records a scan of n generated documents of
// the named domain yields.
func domainRecords(t testing.TB, name string, n int) []*pz.Record {
	t.Helper()
	d, _ := corpus.DomainByName(name)
	docs, err := corpus.Collect(d.New(n, -1, 5))
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*pz.Record, len(docs))
	for i, doc := range docs {
		if recs[i], err = corpus.DocRecord(doc, schema.TextFile, name); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// checkRecords checks RecordsJSON of recs against encoding/json and
// returns it.
func checkRecords(t *testing.T, recs []*pz.Record) json.RawMessage {
	t.Helper()
	got, err := RecordsJSON(recs)
	want, refErr := recordsJSONReference(recs)
	if err != nil || refErr != nil {
		t.Fatalf("RecordsJSON error %v, encoding/json error %v", err, refErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("RecordsJSON writes\n%q\nencoding/json\n%q", got, want)
	}
	return got
}

// checkView checks the job envelope of view, alone and in lists, against
// encoding/json: the same bytes, or both fail.
func checkView(t *testing.T, view JobView) {
	t.Helper()
	var rb responseBuf
	for _, v := range []any{view, []JobView{view, {ID: "b"}}, []JobView{}, []JobView(nil)} {
		got, err := rb.render(v)
		want, refErr := encodeReference(v)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("render error %v, encoding/json error %v", err, refErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("render writes\n%q\nencoding/json\n%q", got, want)
		}
	}
}

// TestQueryResponseMatchesEncoder: the records and the job envelope of a
// response are what encoding/json writes, for the documents of every
// domain and for views with and without an error and a result.
func TestQueryResponseMatchesEncoder(t *testing.T) {
	for _, d := range corpus.Domains() {
		recs := domainRecords(t, d.Name, 20)
		checkView(t, JobView{ID: "job-000001", Tenant: d.Name, Status: StatusDone, Result: &QueryResult{
			Records: checkRecords(t, recs), Count: len(recs), Plan: "scan -> filter(<&>)", Candidates: 3,
			Policy: "max-quality", ElapsedSimMS: 1234, CostUSD: 0.0123,
		}})
	}
	checkRecords(t, nil)
	checkView(t, JobView{ID: "job-000002", Tenant: "default", Status: StatusQueued})
	checkView(t, JobView{ID: edgeText, Tenant: edgeText, Status: StatusFailed, Error: edgeText})
	checkView(t, JobView{Status: StatusDone, Result: &QueryResult{}})
	checkView(t, JobView{Status: StatusDone, Result: &QueryResult{Records: json.RawMessage{}}})
}

// TestWriteJSONUnencodable: a response encoding/json cannot encode
// answers 500 with an error body, not its status with an empty body,
// whether the job envelope's appender or encoding/json renders it.
func TestWriteJSONUnencodable(t *testing.T) {
	for _, v := range []any{
		JobView{ID: "job-000001", Status: StatusDone, Result: &QueryResult{Records: json.RawMessage("[]"), CostUSD: math.NaN()}},
		[]JobView{{ID: "job-000001", Status: StatusDone, Result: &QueryResult{CostUSD: math.Inf(1)}}},
		map[string]float64{"x": math.NaN()},
	} {
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusOK, v)
		var body map[string]string
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("%T: body %q is not JSON: %v", v, w.Body.Bytes(), err)
		}
		if w.Code != http.StatusInternalServerError || !strings.Contains(body["error"], "unsupported value") {
			t.Errorf("%T: status %d, body %q; want 500 with an unsupported-value error", v, w.Code, w.Body.Bytes())
		}
	}
}

// FuzzQueryResponse: RecordsJSON writes what json.Marshal writes for the
// records as maps, over records of every field type, and the job envelope
// writes what a json.Encoder writes for a JobView, or fails where it
// fails.
func FuzzQueryResponse(f *testing.F) {
	for _, doc := range domainRecords(f, corpus.DomainSupport, 2) {
		f.Add(doc.GetString("contents")[:120], doc.GetString("filename"), int64(7), 0.85, 0.0123, false, true)
	}
	f.Add(`<a href="x?a=1&b=2">&amp;</a>`, "<>&", int64(1<<53+1), 1e21, 1e-7, true, true)
	f.Add("ctl \x00\x01\x1f\x7f \b\f\n\r\t \"q\" \\", "\x00", int64(math.MaxInt64), 123456789.125, 1e21, false, true)
	f.Add("bad \xff utf8 \xed\xa0\x80 \xf0\x9f", "k\xc3", int64(-1), 1e-7, 0.0, true, true)
	f.Add("line\u2028sep\u2029end", "\u2028", int64(math.MinInt64), -0.0, -0.5, true, false)
	f.Add("", "", int64(0), 0.0, math.Copysign(0, -1), false, true)
	f.Add("empty records", "e", int64(1), 1.0, 999999999999999999999.0, false, true)
	f.Add("nil records", "n", int64(2), 2.0, 0.000001, false, true)
	f.Add("nan", "n", int64(5), math.NaN(), math.NaN(), true, true)
	f.Add("inf", "i", int64(8), math.Inf(1), math.Inf(-1), false, true)

	f.Fuzz(func(t *testing.T, text, key string, n int64, x, cost float64, withErr, withResult bool) {
		rec := record.MustNew(everyType, map[string]any{
			"filename": key, "contents": text, "count": n, "ratio": x, "urgent": n%2 == 0,
			"tags": []string{key, text}, "blob": []byte(text), "Zeta": text + key,
		})
		file := record.MustNew(schema.TextFile, map[string]any{"filename": text, "contents": key})
		records := checkRecords(t, []*pz.Record{rec, file, rec})
		view := JobView{ID: key, Tenant: text, Status: StatusDone}
		if withErr {
			view.Error = text
		}
		if withResult {
			view.Result = &QueryResult{
				Records: records, Count: int(n), Plan: text, PlanCached: n%2 == 0,
				Candidates: int(n % 1000), Policy: key, ElapsedSimMS: n, CostUSD: cost,
			}
			switch n % 3 {
			case 1:
				view.Result.Records = json.RawMessage("[]")
			case 2:
				view.Result.Records = nil
			}
		}
		checkView(t, view)
	})
}

// discardWriter is an http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestResponseAllocs bounds the allocations of a query response: at most
// one per record for RecordsJSON of text records, amortized (maps or
// reflection per record take more), and at most 0.05 per record, its
// final copy only, when every field type is present; and at most two for writing one ?wait=1 envelope
// (boxing the view and the Content-Type header; encoding/json takes
// more).
func TestResponseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	recs := domainRecords(t, corpus.DomainSupport, 100)
	perRecord := testing.AllocsPerRun(100, func() { _, _ = RecordsJSON(recs) }) / float64(len(recs))
	if perRecord > 1 {
		t.Errorf("RecordsJSON: %.2f allocs per record, want <= 1", perRecord)
	} else {
		t.Logf("RecordsJSON: %.2f allocs per record", perRecord)
	}
	// One field of each type: ints, floats, lists and bytes render from
	// their slots into the response, not through a string per field.
	typed := make([]*pz.Record, 100)
	for i := range typed {
		typed[i] = record.MustNew(everyType, map[string]any{
			"filename": "t.txt", "contents": "<b>ticket</b>", "count": int64(1000 + i), "ratio": 0.25 * float64(i),
			"urgent": i%2 == 0, "tags": []string{"billing", "urgent & open"}, "blob": []byte("raw \xff bytes"), "Zeta": "z",
		})
	}
	checkRecords(t, typed)
	perRecord = testing.AllocsPerRun(100, func() { _, _ = RecordsJSON(typed) }) / float64(len(typed))
	if perRecord > 0.05 {
		t.Errorf("RecordsJSON of every field type: %.2f allocs per record, want <= 0.05", perRecord)
	} else {
		t.Logf("RecordsJSON of every field type: %.2f allocs per record", perRecord)
	}
	records, _ := RecordsJSON(recs)
	view := JobView{ID: "job-000001", Tenant: "tenant-0", Status: StatusDone, Result: &QueryResult{
		Records: records, Count: len(recs), Plan: "scan -> filter", Policy: "max-quality", ElapsedSimMS: 1500, CostUSD: 0.0123,
	}}
	w := &discardWriter{h: http.Header{}}
	if got := testing.AllocsPerRun(100, func() { writeJSON(w, http.StatusOK, view) }); got > 2 {
		t.Errorf("writeJSON of a query's job view: %.0f allocs, want <= 2", got)
	} else {
		t.Logf("writeJSON of a query's job view: %.0f allocs", got)
	}
}

// BenchmarkQueryResponse prices a ?wait=1 response of 100 support
// tickets, its records and its job envelope, through the appenders
// ("codec") and through encoding/json as the server wrote it before them
// ("json"), per record.
func BenchmarkQueryResponse(b *testing.B) {
	recs := domainRecords(b, corpus.DomainSupport, 100)
	view := JobView{ID: "job-000001", Tenant: "tenant-0", Status: StatusDone, Result: &QueryResult{
		Count: len(recs), Plan: "scan -> filter", Policy: "max-quality", ElapsedSimMS: 1500, CostUSD: 0.0123,
	}}
	perRecord := func(b *testing.B, run func() error) {
		b.Helper()
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := run(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		n := float64(b.N) * float64(len(recs))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
	}
	b.Run("codec", func(b *testing.B) {
		w := &discardWriter{h: http.Header{}}
		perRecord(b, func() error {
			records, err := RecordsJSON(recs)
			v := view
			res := *v.Result
			res.Records, v.Result = records, &res
			writeJSON(w, http.StatusOK, v)
			return err
		})
	})
	b.Run("json", func(b *testing.B) {
		w := &discardWriter{h: http.Header{}}
		perRecord(b, func() error {
			records, err := recordsJSONReference(recs)
			if err != nil {
				return err
			}
			v := view
			res := *v.Result
			res.Records, v.Result = records, &res
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			return json.NewEncoder(w).Encode(v)
		})
	})
}
