package dataset_test

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/pz"
)

// demoScenarios are the folders of the paper's three demo scenarios.
var demoScenarios = []struct {
	name      string
	docs      func() []*corpus.Doc
	predicate string
}{
	{"biomed", func() []*corpus.Doc { return corpus.GenerateBiomed(corpus.PaperDemoBiomed()) },
		"The papers are about colorectal cancer"},
	{"legal", func() []*corpus.Doc {
		return corpus.GenerateLegal(corpus.LegalConfig{NumContracts: 40, IndemnificationRate: 0.4, Seed: 7})
	}, "The contract contains an indemnification clause"},
	{"realestate", func() []*corpus.Doc {
		return corpus.GenerateRealEstate(corpus.RealEstateConfig{NumListings: 40, ModernRate: 0.35, Seed: 7})
	}, "The listing has a modern, recently renovated interior"},
}

// materializedEstimate is the cost seed of a folder, memory or docs
// source computed from its materialized records: the record count, and
// the mean Tokens(TextLen()) of the first 16 records.
func materializedEstimate(recs []*pz.Record) ops.Estimate {
	est := ops.Estimate{Cardinality: float64(len(recs)), Quality: 1}
	if n := min(len(recs), 16); n > 0 {
		total := 0
		for _, r := range recs[:n] {
			total += llm.Tokens(r.TextLen())
		}
		est.AvgTokens = float64(total) / float64(n)
	}
	return est
}

// TestDirSourceStatsMatchMaterializedEstimate: on every demo scenario,
// the estimate the optimizer takes from the Stats of a folder, of the
// same documents in memory and of their records in memory is the one
// computed from their materialized records.
func TestDirSourceStatsMatchMaterializedEstimate(t *testing.T) {
	for _, sc := range demoScenarios {
		t.Run(sc.name, func(t *testing.T) {
			docs := sc.docs()
			dir, err := dataset.MaterializeCorpus(sc.name, t.TempDir(), docs)
			if err != nil {
				t.Fatal(err)
			}
			recs, err := dir.Records()
			if err != nil {
				t.Fatal(err)
			}
			inMem, err := dataset.NewDocsSource(sc.name, dir.Schema(), docs)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := dataset.NewMemSource(sc.name, dir.Schema(), recs)
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range []dataset.Source{dir, inMem, mem} {
				recs, err := pz.Collect(src)
				if err != nil {
					t.Fatal(err)
				}
				want := materializedEstimate(recs)
				got, err := optimizer.InitialEstimate([]ops.Logical{&ops.Scan{Source: src}})
				if err != nil || got != want {
					t.Fatalf("%T: estimate from Stats = %+v, %v, want %+v", src, got, err, want)
				}
			}
		})
	}
}

// TestExecuteLoadsFolderOnce: one Execute over a registered folder, as a
// palimpchat "run the pipeline" turn makes, reads the folder once, on
// both engines; a second Execute over the unchanged folder reads it not
// at all.
func TestExecuteLoadsFolderOnce(t *testing.T) {
	var mu sync.Mutex
	loads := map[string]int{}
	defer dataset.SetLoadHook(func(dir string) {
		mu.Lock()
		loads[dir]++
		mu.Unlock()
	})()
	loadsOf := func(dir string) int {
		mu.Lock()
		defer mu.Unlock()
		return loads[dir]
	}
	for _, sc := range demoScenarios {
		for _, p := range []int{1, 4} {
			dir := filepath.Join(t.TempDir(), sc.name)
			if _, err := dataset.MaterializeCorpus(sc.name, dir, sc.docs()); err != nil {
				t.Fatal(err)
			}
			ctx, err := pz.NewContext(pz.Config{Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ctx.RegisterDir(sc.name, dir); err != nil {
				t.Fatal(err)
			}
			if n := loadsOf(dir); n != 0 {
				t.Errorf("%s P=%d: registration read the folder %d times", sc.name, p, n)
			}
			ds, err := ctx.Dataset(sc.name)
			if err != nil {
				t.Fatal(err)
			}
			for run := 1; run <= 2; run++ {
				if _, err := ctx.Execute(ds.Filter(sc.predicate), pz.MaxQuality()); err != nil {
					t.Fatal(err)
				}
				if n := loadsOf(dir); n != 1 {
					t.Errorf("%s P=%d: after run %d the folder was read %d times, want 1", sc.name, p, run, n)
				}
			}
		}
	}
}
