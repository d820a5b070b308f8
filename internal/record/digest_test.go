package record_test

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/record"
	"repro/internal/schema"
)

// refString renders a value the way GetString did before it shared its
// renderer with Text and Digest.
func refString(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case []byte:
		return string(x)
	case []string:
		return strings.Join(x, ", ")
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// joinedText is the text a record had before Text was built in one pass:
// every non-empty field value, in schema order, joined by newlines. It
// also checks GetString against the reference rendering.
func joinedText(t *testing.T, r *record.Record) string {
	t.Helper()
	var parts []string
	for _, f := range r.Schema().Fields() {
		v, _ := r.Get(f.Name)
		s := refString(v)
		if got := r.GetString(f.Name); got != s {
			t.Fatalf("GetString(%q) = %q, want %q", f.Name, got, s)
		}
		if s != "" {
			parts = append(parts, s)
		}
	}
	return strings.Join(parts, "\n")
}

func fnvOf(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// checkDigest asserts that r's GetString and Text match the reference
// rendering, that TextLen is the text's length and that its Digest is the
// FNV-1a hash of that text.
func checkDigest(t *testing.T, label string, r *record.Record) {
	t.Helper()
	text := r.Text()
	if want := joinedText(t, r); text != want {
		t.Fatalf("%s: Text() = %q, want %q", label, text, want)
	}
	if got := r.TextLen(); got != len(text) {
		t.Fatalf("%s: TextLen() = %d, want %d", label, got, len(text))
	}
	if got, want := r.Digest(), fnvOf(text); got != want {
		t.Fatalf("%s: Digest() = %x, want FNV-1a of Text() %x", label, got, want)
	}
}

func TestDigestMatchesTextOnEveryDomain(t *testing.T) {
	domains := corpus.Domains()
	if len(domains) < 5 {
		t.Fatalf("%d domains registered, want the five built-in ones", len(domains))
	}
	for _, d := range domains {
		g, err := corpus.NewGenerator(d.Name, 40, -1, 11)
		if err != nil {
			t.Fatal(err)
		}
		docs, err := corpus.Collect(g)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := corpus.Records(docs, schema.TextFile, d.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			checkDigest(t, d.Name+"/"+r.GetString("filename"), r)
		}
	}
}

func TestDigestMatchesTextOnEveryFieldType(t *testing.T) {
	s := schema.MustNew("Mixed", "one field of every type",
		schema.Field{Name: "title", Type: schema.String},
		schema.Field{Name: "count", Type: schema.Int},
		schema.Field{Name: "score", Type: schema.Float},
		schema.Field{Name: "ok", Type: schema.Bool},
		schema.Field{Name: "tags", Type: schema.StringList},
		schema.Field{Name: "blob", Type: schema.Bytes},
		schema.Field{Name: "note", Type: schema.String},
	)
	long := strings.Repeat("a long tag that overflows the scratch buffer ", 4)
	for i, vals := range []map[string]any{
		{},
		{"title": "", "note": ""},
		{"title": "Quarterly report", "count": 42, "score": 0.1 + 0.2, "ok": true,
			"tags": []string{"alpha", "", "gamma"}, "blob": []byte("raw\nbytes"), "note": "ünïcödé"},
		{"count": -9000000000, "score": 1e21, "tags": []string{long, long}},
		{"score": -0.0, "blob": []byte{}, "note": "only the note"},
	} {
		checkDigest(t, "mixed#"+string(rune('0'+i)), record.MustNew(s, vals))
	}
}

// TestDigestKeptAcrossGoroutines: first Digest calls racing on one shared
// record all return the FNV-1a of its Text(), later calls return the kept
// value, Set drops it, and a clone keeps its original's.
func TestDigestKeptAcrossGoroutines(t *testing.T) {
	r := record.MustNew(schema.TextFile, map[string]any{"filename": "a.txt", "contents": "colorectal cancer study"})
	want := fnvOf(r.Text())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := r.Digest(); got != want {
					t.Errorf("Digest() = %x, want %x", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := r.Set("contents", "influenza vaccine trial"); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Digest(), fnvOf(r.Text()); got != want || got == fnvOf("a.txt\ncolorectal cancer study") {
		t.Fatalf("after Set, Digest() = %x, want %x", got, want)
	}
	if c := r.Clone(); c.Digest() != r.Digest() || c.Digest() != fnvOf(c.Text()) {
		t.Fatalf("clone digest %x, original %x", c.Digest(), r.Digest())
	}
}
