package corpus_test

import (
	"io"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corpus/spec"
)

// supportSpecPath is the spec-compiled twin of the hand-written support
// domain.
const supportSpecPath = "../../specs/support-triage.json"

// TestGeneratedCorpusChecksums pins the NDJSON bytes of every built-in
// domain, including the 25,000-ticket support corpus at seed 7 that the
// corpus_scan benchmark workload scans. A change to a generator, to the
// per-document RNG or to the encoder that moves any byte fails here.
func TestGeneratedCorpusChecksums(t *testing.T) {
	twin, err := spec.Load(supportSpecPath)
	if err != nil {
		t.Fatalf("Load(%s): %v", supportSpecPath, err)
	}
	cases := []struct {
		name string
		gen  func() corpus.Generator
		docs int
		sha  string
	}{
		{"support-25000-seed7", func() corpus.Generator {
			return corpus.NewSupportGenerator(corpus.SupportConfig{NumTickets: 25000, UrgentRate: 0.3, Seed: 7})
		}, 25000, "508372220f9100d14251e5ee40e691974aec5354bd34f3403c71683d60d6413c"},
		{"finance-3000-seed7", func() corpus.Generator {
			return corpus.NewFinanceGenerator(corpus.FinanceConfig{NumFilings: 3000, ProfitableRate: 0.6, Seed: 7})
		}, 3000, "b99baf817fbadcefd5f26a33040ebdea108daf11f9efa01da008fb41882e8c24"},
		{"support-spec-2500-seed11", func() corpus.Generator {
			return twin.Generator(2500, 0.45, 11)
		}, 2500, "3de30a482bf35dd32b717336447fd8a56d64558884b590e077e20eb62c82e1cf"},
		{"biomed-paper-demo", func() corpus.Generator {
			return corpus.NewBiomedGenerator(corpus.PaperDemoBiomed())
		}, 11, "a3040923405f4bd54dd9a1f1b58f5c0c7aecb8621009cd4c332f541ac9a9824b"},
		{"legal-400-seed7", func() corpus.Generator {
			return corpus.NewLegalGenerator(corpus.LegalConfig{NumContracts: 400, IndemnificationRate: 0.4, Seed: 7})
		}, 400, "cb19e410fce08ff02b6dc1a374d5a3fa92085c40087d9cafb54b8ccc31ee1b20"},
		{"realestate-600-seed7", func() corpus.Generator {
			return corpus.NewRealEstateGenerator(corpus.RealEstateConfig{NumListings: 600, ModernRate: 0.35, Seed: 7})
		}, 600, "91b21fdce17e9f93db2e830d5e7cb8833347ac7052db20f9e6a59d7d2d7f6e23"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := corpus.WriteNDJSON(io.Discard, c.gen())
			if err != nil {
				t.Fatal(err)
			}
			if m.NumDocs != c.docs || m.SHA256 != c.sha {
				t.Errorf("got %d docs, %d bytes, sha256 %s; want %d docs, sha256 %s",
					m.NumDocs, m.Bytes, m.SHA256, c.docs, c.sha)
			}
		})
	}
}
