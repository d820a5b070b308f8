package corpus_test

import (
	"io"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/spec"
)

// BenchmarkGenerate drains 5,000-document corpora of the index-addressable
// domains: the hand-written support and finance generators and the
// spec-compiled support twin. One op is one whole corpus; ns/doc is the
// per-document cost. Run with
// `go test -run '^$' -bench BenchmarkGenerate -benchmem ./internal/corpus`.
func BenchmarkGenerate(b *testing.B) {
	const docs = 5000
	twin, err := spec.Load(supportSpecPath)
	if err != nil {
		b.Fatalf("Load(%s): %v", supportSpecPath, err)
	}
	for _, c := range []struct {
		name string
		gen  func() corpus.Generator
	}{
		{"support", func() corpus.Generator {
			return corpus.NewSupportGenerator(corpus.SupportConfig{NumTickets: docs, UrgentRate: 0.3, Seed: 7})
		}},
		{"finance", func() corpus.Generator {
			return corpus.NewFinanceGenerator(corpus.FinanceConfig{NumFilings: docs, ProfitableRate: 0.6, Seed: 7})
		}},
		{"support-spec", func() corpus.Generator { return twin.Generator(docs, -1, 7) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				g := c.gen()
				for {
					if _, err := g.Next(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*docs), "ns/doc")
		})
	}
}
