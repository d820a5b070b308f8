package dataset_test

import (
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
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

// sourceOnly hides every capability of a source but Source itself, so the
// optimizer costs it by materializing its records.
type sourceOnly struct{ dataset.Source }

// TestDirSourceStatsMatchMaterializedEstimate: on every demo scenario,
// the estimate the optimizer takes from DirSource.Stats is the one it
// builds by materializing the folder.
func TestDirSourceStatsMatchMaterializedEstimate(t *testing.T) {
	for _, sc := range demoScenarios {
		t.Run(sc.name, func(t *testing.T) {
			src, err := dataset.MaterializeCorpus(sc.name, t.TempDir(), sc.docs())
			if err != nil {
				t.Fatal(err)
			}
			st, ok := src.Stats()
			if !ok {
				t.Fatal("Stats untrusted")
			}
			want, err := optimizer.InitialEstimate([]ops.Logical{&ops.Scan{Source: sourceOnly{src}}})
			if err != nil {
				t.Fatal(err)
			}
			if float64(st.NumRecords) != want.Cardinality || st.AvgTokens != want.AvgTokens {
				t.Fatalf("Stats = %+v, materialized estimate = %+v", st, want)
			}
			got, err := optimizer.InitialEstimate([]ops.Logical{&ops.Scan{Source: src}})
			if err != nil || got != want {
				t.Fatalf("estimate from Stats = %+v, %v, want %+v", got, err, want)
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
