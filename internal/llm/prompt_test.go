package llm

import (
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/schema"
)

// mixedSchema has one field of every type, so a record over it renders
// text through every branch of the record's value renderer.
var mixedSchema = schema.MustNew("Mixed", "one field of every type",
	schema.Field{Name: "title", Type: schema.String},
	schema.Field{Name: "count", Type: schema.Int},
	schema.Field{Name: "score", Type: schema.Float},
	schema.Field{Name: "ok", Type: schema.Bool},
	schema.Field{Name: "tags", Type: schema.StringList},
	schema.Field{Name: "blob", Type: schema.Bytes},
)

// FuzzRequestPricing checks that a request's unrendered price is the
// token count of the prompt it renders, for filter and extract requests
// over records of every field type, with and without a record.
func FuzzRequestPricing(f *testing.F) {
	f.Add("The papers are about colorectal cancer", "A schema for clinical data.", "name", "The dataset name",
		uint8(0), "Colorectal cancer study", int64(42), 0.25, true, "a,b", []byte("raw"))
	f.Add("", "", "", "", uint8(3), "", int64(0), 0.0, false, "", []byte{})
	f.Add("ünïcödé?", "x\ny", "n", "", uint8(200), "é", int64(-9000000000), 1e21, false, ",,", []byte("\x00\xff"))
	f.Fuzz(func(t *testing.T, predicate, desc, fname, fdesc string, ftype uint8,
		title string, count int64, score float64, ok bool, tags string, blob []byte) {
		r, err := record.NewSlots(mixedSchema, []any{title, count, score, ok, strings.Split(tags, ","), blob})
		if err != nil {
			t.Fatal(err)
		}
		fields := []schema.Field{
			{Name: fname, Type: schema.FieldType(ftype % 7), Desc: fdesc},
			{Name: fdesc, Type: schema.String, Desc: fname},
		}
		for _, req := range []Request{
			{Task: TaskFilter, Record: r, Predicate: predicate},
			{Task: TaskFilter, Predicate: predicate},
			{Task: TaskExtract, Record: r, Desc: desc, Fields: fields},
			{Task: TaskExtract, Record: r, Desc: desc, Fields: fields[:int(ftype)%3]},
			{Task: TaskExtract, Desc: desc, Fields: fields},
		} {
			prompt := req.Render()
			if got, want := req.InputTokens(), CountTokens(prompt); got != want {
				t.Fatalf("%v request priced at %d tokens, its %d-byte prompt has %d", req.Task, got, len(prompt), want)
			}
			if req.Record != nil && !strings.Contains(prompt, r.Text()) {
				t.Fatalf("%v prompt %q does not hold the record text %q", req.Task, prompt, r.Text())
			}
		}
	})
}
