package corpus

import (
	"fmt"
	"math/rand"
)

// SDK hooks for building domains outside this package — most notably the
// config-driven domain specs of internal/corpus/spec. They expose the
// exact primitives the hand-written scale domains (support, finance) are
// built from, so an externally-defined domain can be draw-for-draw
// compatible with a hand-written twin: the same per-document RNG
// derivation, the same positive-class scatter, and the same
// index-addressable generator base.

// DocRNG returns the per-document RNG of the index-addressable
// generators: document i's stream depends only on (seed, i), never on how
// many documents were generated before it. Domains built on DocRNG are
// constant-memory at any corpus size and can be range-partitioned freely.
// The stream is exactly rand.New(rand.NewSource(mix64(seed, i)))'s, from a
// source that computes its register words on first read.
func DocRNG(seed int64, i int) *rand.Rand { return docRNG(seed, i) }

// NewIndexGenerator builds a streaming generator over an index-addressable
// document function: gen(rng, i) must be a pure function of i and the
// draws it makes from rng, which yields DocRNG(seed, i)'s stream. The
// generator owns one RNG and re-seeds it in place for every document, so
// gen must not keep rng past the call. n <= 0 yields an empty generator.
func NewIndexGenerator(domain string, n int, seed int64, gen func(rng *rand.Rand, i int) *Doc) Generator {
	if n <= 0 {
		return &indexGen{domain: domain}
	}
	return &indexGen{domain: domain, n: n, seed: seed, rng: rand.New(new(lazySource)), gen: gen}
}

// PositiveScatter marks exactly round(n*rate) of n documents as the
// positive class (urgent tickets, profitable filings, ...), spread
// pseudo-randomly across the corpus with constant memory — the streaming
// replacement for "generate positives first, then shuffle". It is the
// same scatter the hand-written scale domains use, so a spec-compiled
// twin marks the same document indices positive.
type PositiveScatter struct {
	s scatter
	k int
}

// NewPositiveScatter derives a scatter from (seed, n) with a positive
// count of round(n*rate). Rates outside [0,1] are clamped.
func NewPositiveScatter(seed int64, n int, rate float64) PositiveScatter {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return PositiveScatter{s: newScatter(seed, n), k: int(float64(n)*rate + 0.5)}
}

// Positive reports whether document i belongs to the positive class.
func (p PositiveScatter) Positive(i int) bool { return p.s.pos(i) < p.k }

// Positives returns how many documents are positive.
func (p PositiveScatter) Positives() int { return p.k }

// RegisterDomain adds a domain to the registry behind Domains, DomainByName,
// and NewGenerator, making it reachable from every corpus entry point
// (`pzcorpus generate`, manifest-driven validation, the pzbench harness)
// exactly like the built-in Go domains. The name must be non-empty and
// not already registered.
func RegisterDomain(d Domain) error {
	if d.Name == "" {
		return fmt.Errorf("corpus: registered domain has no name")
	}
	if d.New == nil {
		return fmt.Errorf("corpus: domain %q has no generator constructor", d.Name)
	}
	if _, exists := domains[d.Name]; exists {
		return fmt.Errorf("corpus: domain %q already registered", d.Name)
	}
	domains[d.Name] = d
	return nil
}
