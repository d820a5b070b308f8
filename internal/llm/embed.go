package llm

import (
	"fmt"
	"math"

	"repro/internal/record"
	"repro/internal/textutil"
)

// EmbedDim is the dimensionality of simulated embeddings. 256 buckets
// keeps hash collisions rare enough that a short discriminative phrase
// (a few terms of a long document) survives into the vector — the
// property semantic prefilters depend on.
const EmbedDim = 256

// Embed produces a deterministic embedding of text with the named embedding
// model, charging its tokens to usage. The embedding is a term-feature hash:
// texts sharing vocabulary land near each other, which is the property the
// Retrieve operator and the embedding pre-filter need.
//
// Each distinct text is embedded once per Service and the vector is
// memoized, so the returned slice may be shared with other callers and
// must be treated as read-only. Every call is still charged in full.
func (s *Service) Embed(model, text string) ([]float64, *Response, error) {
	return s.embed(model, len(text), fnv1a(text), func() string { return text })
}

// EmbedRecord is Embed(model, r.Text()), but it looks the vector up by
// r.Digest() and prices r.TextLen(), so it builds the text only when the
// vector is not memoized yet.
func (s *Service) EmbedRecord(model string, r *record.Record) ([]float64, *Response, error) {
	return s.embed(model, r.TextLen(), r.Digest(), r.Text)
}

// embed charges one embedding of a text of n bytes hashing to key and
// returns its vector, calling text only on a memo miss.
func (s *Service) embed(model string, n int, key uint64, text func() string) ([]float64, *Response, error) {
	card, err := Card(model)
	if err != nil {
		return nil, nil, err
	}
	if !card.Embedding {
		return nil, nil, fmt.Errorf("llm: %s is not an embedding model", card.Name)
	}
	inTok := Tokens(n)
	if inTok == 0 {
		return nil, nil, fmt.Errorf("llm: cannot embed empty text")
	}
	if inTok > card.ContextWindow {
		// Real embedding endpoints truncate; we charge only the window.
		inTok = card.ContextWindow
	}
	vec, _ := s.embeds.GetOrCompute(key, func() ([]float64, error) {
		return EmbedVector(text()), nil
	})
	resp := &Response{
		Model:       card.Name,
		InputTokens: inTok,
		CostUSD:     card.Cost(inTok, 0),
		Latency:     card.Latency(inTok, 0),
	}
	s.account(card.Name, Usage{
		Calls:       1,
		InputTokens: inTok,
		CostUSD:     resp.CostUSD,
		Latency:     resp.Latency,
	})
	return vec, resp, nil
}

// EmbedVector is the pure embedding function (no accounting): terms are
// hashed into EmbedDim buckets with signed sqrt-damped frequency weights
// and the result is L2-normalized. The sublinear damping keeps repeated
// boilerplate vocabulary from drowning the rare discriminative terms.
// Terms are folded in sorted order, so equal texts give bit-identical
// vectors. The zero vector is returned for term-less text.
func EmbedVector(text string) []float64 {
	vec := make([]float64, EmbedDim)
	terms, tf := textutil.CountTerms(text)
	for i, term := range terms {
		sum := fnv1a(term)
		idx := int(sum % EmbedDim)
		sign := 1.0
		if (sum>>32)%2 == 1 {
			sign = -1.0
		}
		vec[idx] += sign * math.Sqrt(tf[i])
	}
	var n float64
	for _, x := range vec {
		n += x * x
	}
	if n == 0 {
		return vec
	}
	n = math.Sqrt(n)
	for i := range vec {
		vec[i] /= n
	}
	return vec
}

// FNV-1a's 64-bit parameters, as hash/fnv's New64a uses them.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a is the 64-bit FNV-1a hash of s, as hash/fnv's New64a computes it.
func fnv1a(s string) uint64 { return fnvAdd(fnvOffset64, s) }

// fnvAdd continues the FNV-1a hash h over the bytes of s.
func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}
