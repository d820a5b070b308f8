package corpus

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
)

// Generator is the streaming generation API: documents are produced one at
// a time, in a deterministic order fixed by the generator's config and
// seed. The index-addressable generators behind the two scale domains
// (support, finance) run in constant memory at any corpus size; the three
// paper-demo domains (biomed, legal, realestate) materialize their slice
// first because their document interleave is a trailing shuffle over the
// whole collection — they are paper-exact shapes, not scale corpora.
//
// For every domain, the slice API (GenerateX) and the streaming API
// (NewXGenerator) yield byte-identical documents for the same config:
// GenerateX is defined as collecting the stream (new domains), or the
// stream is defined as iterating the slice (paper domains).
type Generator interface {
	// Domain names the workload domain ("support", "finance", ...).
	Domain() string
	// Len is the total number of documents the generator yields.
	Len() int
	// Next returns the next document, or io.EOF after the last one. A
	// generator is single-use; construct a new one to re-stream.
	Next() (*Doc, error)
}

// Domain name constants, as accepted by NewGenerator and cmd/pzcorpus.
const (
	DomainBiomed     = "biomed"
	DomainLegal      = "legal"
	DomainRealEstate = "realestate"
	DomainSupport    = "support"
	DomainFinance    = "finance"
)

// Collect drains a generator into a slice. Only reader-backed generators
// (e.g. an NDJSON DocReader) can return an error; the synthetic domain
// generators never do.
func Collect(g Generator) ([]*Doc, error) {
	docs := make([]*Doc, 0, g.Len())
	for {
		d, err := g.Next()
		if err == io.EOF {
			return docs, nil
		}
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
}

// SliceGenerator streams a pre-materialized document slice — the adapter
// that gives the paper-demo domains the Generator interface. Memory is
// O(len(docs)), paid by whoever built the slice.
type SliceGenerator struct {
	domain string
	docs   []*Doc
	next   int
}

// NewSliceGenerator wraps docs in a single-use streaming view.
func NewSliceGenerator(domain string, docs []*Doc) *SliceGenerator {
	return &SliceGenerator{domain: domain, docs: docs}
}

// Domain implements Generator.
func (g *SliceGenerator) Domain() string { return g.domain }

// Len implements Generator.
func (g *SliceGenerator) Len() int { return len(g.docs) }

// Next implements Generator.
func (g *SliceGenerator) Next() (*Doc, error) {
	if g.next >= len(g.docs) {
		return nil, io.EOF
	}
	d := g.docs[g.next]
	g.next++
	return d, nil
}

// indexGen is the constant-memory generator base of the scale domains
// (see NewIndexGenerator): document i is produced by gen from its own RNG
// stream (see docRNG), so the stream holds no state beyond a cursor and
// one RNG, and any prefix of the corpus is independent of the rest. The
// RNG is re-seeded in place for every document, so generating allocates
// no RNG state per document.
type indexGen struct {
	domain string
	n      int
	next   int
	seed   int64
	rng    *rand.Rand
	gen    func(rng *rand.Rand, i int) *Doc
}

// Domain implements Generator.
func (g *indexGen) Domain() string { return g.domain }

// Len implements Generator.
func (g *indexGen) Len() int { return g.n }

// Next implements Generator.
func (g *indexGen) Next() (*Doc, error) {
	if g.next >= g.n {
		return nil, io.EOF
	}
	g.rng.Seed(mix64(g.seed, g.next))
	d := g.gen(g.rng, g.next)
	g.next++
	return d, nil
}

// mix64 derives a statistically independent per-document seed from the
// corpus seed and a document index (splitmix64 finalizer).
func mix64(seed int64, i int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(int64(i)+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// docRNG is the per-document RNG of the index-addressable generators:
// document i's content depends only on (seed, i), never on how many
// documents were generated before it. Its stream is exactly
// rand.New(rand.NewSource(mix64(seed, i)))'s, from a lazily seeded source
// (see lazySource).
func docRNG(seed int64, i int) *rand.Rand {
	s := new(lazySource)
	s.Seed(mix64(seed, i))
	return rand.New(s)
}

// scatter maps document indices to pseudo-random positions in [0, n) via
// an affine permutation with a seed-derived stride coprime to n. Testing
// pos(i) < k marks exactly k documents as the positive class, spread
// across the corpus, with constant memory — the streaming replacement for
// "generate positives first, then shuffle".
type scatter struct {
	n, stride, offset int
}

func newScatter(seed int64, n int) scatter {
	if n <= 1 {
		return scatter{n: n, stride: 1}
	}
	h := uint64(mix64(seed, -7))
	stride := 1 + int(h%uint64(n-1))
	for gcd(stride, n) != 1 {
		stride++
		if stride >= n {
			stride = 1
		}
	}
	offset := int((h >> 32) % uint64(n))
	return scatter{n: n, stride: stride, offset: offset}
}

func (s scatter) pos(i int) int {
	if s.n <= 1 {
		return 0
	}
	// 64-bit arithmetic: i*stride reaches ~1e10 on a 100k corpus, which
	// would overflow (and go negative) on 32-bit platforms and break the
	// cross-platform byte-for-byte determinism guarantee.
	return int((int64(i)*int64(s.stride) + int64(s.offset)) % int64(s.n))
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Streaming views of the paper-demo domains. These materialize the slice
// (the legacy generators interleave documents with a trailing shuffle) and
// stream it; use them for API uniformity, not for memory savings.

// NewBiomedGenerator streams GenerateBiomed(cfg).
func NewBiomedGenerator(cfg BiomedConfig) Generator {
	return NewSliceGenerator(DomainBiomed, GenerateBiomed(cfg))
}

// NewLegalGenerator streams GenerateLegal(cfg).
func NewLegalGenerator(cfg LegalConfig) Generator {
	return NewSliceGenerator(DomainLegal, GenerateLegal(cfg))
}

// NewRealEstateGenerator streams GenerateRealEstate(cfg).
func NewRealEstateGenerator(cfg RealEstateConfig) Generator {
	return NewSliceGenerator(DomainRealEstate, GenerateRealEstate(cfg))
}

// Domain describes one corpus domain: how to build a generator from the
// common (size, rate, seed) knobs, and how to check a generated document's
// domain-specific Truth/text consistency. cmd/pzcorpus and the docs
// enumerate domains through this registry.
type Domain struct {
	// Name is the registry key ("support", "biomed", ...).
	Name string
	// Description is a one-line summary for CLI help and docs.
	Description string
	// Workload names the demo scenario the domain backs.
	Workload string
	// DefaultDocs is the corpus size used when the caller gives none.
	DefaultDocs int
	// DefaultRate is the domain's positive-class fraction (relevant
	// papers, urgent tickets, ...) when the caller gives none.
	DefaultRate float64
	// Streaming reports whether New returns a constant-memory,
	// index-addressable generator (false for the paper-demo domains,
	// which materialize their slice first).
	Streaming bool
	// New builds a generator of n documents. rate overrides the domain's
	// positive-class fraction when >= 0; pass a negative rate for the
	// default.
	New func(n int, rate float64, seed int64) Generator
	// Validate checks domain-specific consistency between a document's
	// Truth and its text (nil when the generic checks suffice).
	Validate func(*Doc) error
}

// domains is the registry backing Domains and NewGenerator.
var domains = map[string]Domain{
	DomainBiomed: {
		Name:        DomainBiomed,
		Description: "biomedical papers with embedded public-dataset mentions",
		Workload:    "scientific discovery (filter + one-to-many extraction)",
		DefaultDocs: 11, DefaultRate: 5.0 / 11,
		New: func(n int, rate float64, seed int64) Generator {
			if rate < 0 {
				rate = 5.0 / 11
			}
			relevant := int(float64(n)*rate + 0.5)
			// Keep dataset mentions proportional (the E9 scaling ratio)
			// so selectivities, and therefore plan choices, track size.
			return NewBiomedGenerator(BiomedConfig{
				NumPapers: n, NumRelevant: relevant,
				NumDatasets: relevant * 6 / 5, Seed: seed,
			})
		},
		Validate: validateBiomedDoc,
	},
	DomainLegal: {
		Name:        DomainLegal,
		Description: "contracts, a fraction carrying indemnification clauses",
		Workload:    "legal discovery (clause filter + party extraction)",
		DefaultDocs: 40, DefaultRate: 0.4,
		New: func(n int, rate float64, seed int64) Generator {
			if rate < 0 {
				rate = 0.4
			}
			return NewLegalGenerator(LegalConfig{NumContracts: n, IndemnificationRate: rate, Seed: seed})
		},
		Validate: validateLegalDoc,
	},
	DomainRealEstate: {
		Name:        DomainRealEstate,
		Description: "property listings with prices, sizes, and modern/dated interiors",
		Workload:    "real-estate search (semantic filter + aggregation)",
		DefaultDocs: 120, DefaultRate: 0.35,
		New: func(n int, rate float64, seed int64) Generator {
			if rate < 0 {
				rate = 0.35
			}
			return NewRealEstateGenerator(RealEstateConfig{NumListings: n, ModernRate: rate, Seed: seed})
		},
		Validate: validateRealEstateDoc,
	},
	DomainSupport: {
		Name:        DomainSupport,
		Description: "customer-support tickets for triage and routing",
		Workload:    "support triage (urgency filter + category routing)",
		DefaultDocs: 200, DefaultRate: 0.3,
		Streaming: true,
		New: func(n int, rate float64, seed int64) Generator {
			if rate < 0 {
				rate = 0.3
			}
			return NewSupportGenerator(SupportConfig{NumTickets: n, UrgentRate: rate, Seed: seed})
		},
		Validate: validateSupportDoc,
	},
	DomainFinance: {
		Name:        DomainFinance,
		Description: "annual financial filings with extractable key figures",
		Workload:    "financial analysis (profitability filter + numeric extraction)",
		DefaultDocs: 150, DefaultRate: 0.6,
		Streaming: true,
		New: func(n int, rate float64, seed int64) Generator {
			if rate < 0 {
				rate = 0.6
			}
			return NewFinanceGenerator(FinanceConfig{NumFilings: n, ProfitableRate: rate, Seed: seed})
		},
		Validate: validateFinanceDoc,
	},
}

// Domains returns every registered domain, sorted by name.
func Domains() []Domain {
	out := make([]Domain, 0, len(domains))
	for _, d := range domains {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DomainByName looks a domain up in the registry.
func DomainByName(name string) (Domain, bool) {
	d, ok := domains[name]
	return d, ok
}

// NewGenerator builds a generator for the named domain with the common
// knobs: n documents (the domain default when n <= 0), positive-class rate
// (the domain default when negative), and seed.
func NewGenerator(domain string, n int, rate float64, seed int64) (Generator, error) {
	d, ok := domains[domain]
	if !ok {
		names := make([]string, 0, len(domains))
		for _, dd := range Domains() {
			names = append(names, dd.Name)
		}
		return nil, fmt.Errorf("corpus: unknown domain %q (have: %v)", domain, names)
	}
	if n <= 0 {
		n = d.DefaultDocs
	}
	return d.New(n, rate, seed), nil
}
