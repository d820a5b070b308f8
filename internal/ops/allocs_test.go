package ops

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/record"
	"repro/internal/schema"
)

// TestFilterAllocs pins what LLMFilterExec.Execute allocates over an
// 8-record batch whose every response is a cache hit: the filter loop's
// own slices, the kept-record slice and one response per hit, plus the
// worker pool when the batch runs in parallel. The plain filter is the
// hottest operator of the corpus_scan, serve_mix and cluster_scatter
// workloads, so the loop every filter strategy shares must not grow it.
func TestFilterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, tc := range []struct {
		parallelism int
		max         float64
	}{{1, 15}, {4, 21}} {
		ctx, _, _ := newCtx(t, tc.parallelism)
		recs := scanAll(t, ctx, biomedSource(t))
		if len(recs) < 8 {
			t.Fatalf("fixture has %d records, want at least 8", len(recs))
		}
		recs = recs[:8]
		client, err := llm.NewCachedClient(ctx.Client, llm.NewCache())
		if err != nil {
			t.Fatal(err)
		}
		ctx.Client = client
		ctx.SetCurrentOp(1)
		f := &LLMFilterExec{Filter: &Filter{Predicate: demoPredicate}, Model: "atlas-small"}
		if _, err := f.Execute(ctx, recs); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := f.Execute(ctx, recs); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("P=%d: LLMFilterExec.Execute over 8 cache hits: %.0f allocs, want <= %.0f",
				tc.parallelism, got, tc.max)
		} else {
			t.Logf("P=%d: LLMFilterExec.Execute over 8 cache hits: %.0f allocs", tc.parallelism, got)
		}
	}
}

// TestScanStreamAllocs pins what the scan's one read loop allocates to
// stream 64 records in batches of 8: over a memory source, one buffer per
// batch and five for the loop's closures and the state they share; over an
// NDJSON corpus, also each record's build (about 7.7 per document) and
// the file's open and reader.
func TestScanStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const docs, batch = 64, 8
	recs := make([]*record.Record, docs)
	for i := range recs {
		recs[i] = record.MustNew(schema.TextFile, map[string]any{"filename": fmt.Sprintf("%02d.txt", i), "contents": "text"})
	}
	mem, err := dataset.NewMemSource("mem", schema.TextFile, recs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tickets.ndjson")
	g := corpus.NewSupportGenerator(corpus.SupportConfig{NumTickets: docs, UrgentRate: 0.3, Seed: 3})
	if _, err := corpus.SaveNDJSON(path, g, 3, nil); err != nil {
		t.Fatal(err)
	}
	file, err := dataset.NewNDJSONSource("tickets", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  dataset.Source
		max  float64
	}{{"memory", mem, 13}, {"ndjson", file, 505}} {
		ctx, _, _ := newCtx(t, 1)
		scan := &ScanExec{Source: tc.src}
		n := 0
		got := testing.AllocsPerRun(20, func() {
			if err := scan.Stream(ctx, 0, docs, batch, func(b []*record.Record) error {
				n += len(b)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
		if n != 21*docs {
			t.Fatalf("%s: streamed %d records, want %d", tc.name, n, 21*docs)
		}
		if got > tc.max {
			t.Errorf("%s: ScanExec.Stream of %d records in batches of %d: %.0f allocs, want <= %.0f", tc.name, docs, batch, got, tc.max)
		} else {
			t.Logf("%s: ScanExec.Stream of %d records in batches of %d: %.0f allocs", tc.name, docs, batch, got)
		}
	}
}
