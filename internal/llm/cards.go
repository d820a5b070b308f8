// Package llm implements the simulated LLM substrate that replaces the
// hosted models Palimpzest calls (see DESIGN.md substitutions). It exposes
// a model catalog with per-model price sheets, latency models, and quality
// tiers; a completion service whose task-level behaviour is driven by the
// synthetic corpus ground truth plus deterministic per-(record,model) noise;
// an embedding model; and failure injection with a retrying client.
//
// The simulation boundary is honest: operators pay for every token of the
// prompt a request stands for (Request.Render builds it), but the
// *decision* a simulated model returns comes from structured task metadata
// (predicate, target fields, record), so pipeline quality is measurable
// against ground truth. Expensive models are slower, costlier, and more
// accurate — the same trade-off surface the Palimpzest
// optimizer navigates with real providers.
package llm

import (
	"fmt"
	"sort"
	"time"
)

// ModelCard describes one simulated model's pricing, speed, and quality.
type ModelCard struct {
	// Name identifies the model ("atlas-large").
	Name string
	// InputUSDPerMTok and OutputUSDPerMTok are prices per million tokens.
	InputUSDPerMTok  float64
	OutputUSDPerMTok float64
	// LatencyBase is the fixed per-call overhead.
	LatencyBase time.Duration
	// TokensPerSec is the output generation speed.
	TokensPerSec float64
	// PrefillTokensPerSec is the prompt-processing speed; long documents
	// dominate call latency through this term, which is what pushes the
	// demo pipeline into the paper's ~240 s regime.
	PrefillTokensPerSec float64
	// Quality in (0,1] is the model's headline quality tier; task-level
	// accuracies are derived from it (FilterAccuracy, ExtractAccuracy).
	Quality float64
	// ContextWindow is the maximum tokens per request.
	ContextWindow int
	// Embedding marks embedding-only models.
	Embedding bool
}

// Cost returns the dollar cost of a call with the given token counts.
func (c ModelCard) Cost(inTok, outTok int) float64 {
	return float64(inTok)*c.InputUSDPerMTok/1e6 + float64(outTok)*c.OutputUSDPerMTok/1e6
}

// Latency returns the simulated wall-clock latency of a call reading inTok
// prompt tokens and producing outTok tokens.
func (c ModelCard) Latency(inTok, outTok int) time.Duration {
	d := c.LatencyBase
	if c.PrefillTokensPerSec > 0 {
		d += time.Duration(float64(inTok) / c.PrefillTokensPerSec * float64(time.Second))
	}
	if c.TokensPerSec > 0 {
		d += time.Duration(float64(outTok) / c.TokensPerSec * float64(time.Second))
	}
	return d
}

// FilterAccuracy is the probability the model classifies a natural-language
// filter correctly. The top tier is treated as gold (accuracy 1.0), the way
// Palimpzest's optimizer treats its champion model's output as the quality
// reference.
func (c ModelCard) FilterAccuracy() float64 {
	if c.Quality >= 0.95 {
		return 1.0
	}
	return 0.55 + 0.45*c.Quality
}

// ExtractAccuracy is the per-entity probability that an extraction is
// produced and correct.
func (c ModelCard) ExtractAccuracy() float64 {
	if c.Quality >= 0.95 {
		return 1.0
	}
	return 0.50 + 0.50*c.Quality
}

// Standard catalog. Prices and speeds are modeled on the public price
// sheets of frontier/mid/small hosted models circa the paper's demo, so the
// optimizer's cost-quality trade-offs have realistic magnitudes.
var catalog = map[string]ModelCard{
	"atlas-large": {
		Name: "atlas-large", InputUSDPerMTok: 10.0, OutputUSDPerMTok: 30.0,
		LatencyBase: 900 * time.Millisecond, TokensPerSec: 22,
		PrefillTokensPerSec: 150, Quality: 0.95,
		ContextWindow: 128000,
	},
	"atlas-medium": {
		Name: "atlas-medium", InputUSDPerMTok: 2.5, OutputUSDPerMTok: 10.0,
		LatencyBase: 500 * time.Millisecond, TokensPerSec: 45,
		PrefillTokensPerSec: 900, Quality: 0.88,
		ContextWindow: 128000,
	},
	"atlas-small": {
		Name: "atlas-small", InputUSDPerMTok: 0.15, OutputUSDPerMTok: 0.60,
		LatencyBase: 300 * time.Millisecond, TokensPerSec: 90,
		PrefillTokensPerSec: 2200, Quality: 0.78,
		ContextWindow: 128000,
	},
	"pigeon-7b": {
		Name: "pigeon-7b", InputUSDPerMTok: 0.05, OutputUSDPerMTok: 0.25,
		LatencyBase: 150 * time.Millisecond, TokensPerSec: 140,
		PrefillTokensPerSec: 4500, Quality: 0.68,
		ContextWindow: 32000,
	},
	"atlas-embed": {
		Name: "atlas-embed", InputUSDPerMTok: 0.02, OutputUSDPerMTok: 0,
		LatencyBase: 40 * time.Millisecond, TokensPerSec: 0, Quality: 0.85,
		ContextWindow: 8192, Embedding: true,
	},
}

// Catalog returns the model cards sorted by descending quality then name.
func Catalog() []ModelCard {
	out := make([]ModelCard, 0, len(catalog))
	for _, c := range catalog {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Quality != out[j].Quality {
			return out[i].Quality > out[j].Quality
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// CompletionModels returns the non-embedding model cards, best-first.
func CompletionModels() []ModelCard {
	var out []ModelCard
	for _, c := range Catalog() {
		if !c.Embedding {
			out = append(out, c)
		}
	}
	return out
}

// Card looks up a model by name.
func Card(name string) (ModelCard, error) {
	c, ok := catalog[name]
	if !ok {
		return ModelCard{}, fmt.Errorf("llm: unknown model %q", name)
	}
	return c, nil
}

// MustCard is Card that panics on unknown names; for static references.
func MustCard(name string) ModelCard {
	c, err := Card(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Tokens is the token count of a text of n bytes by the standard ~4
// characters-per-token heuristic: 0 for empty text, at least 1 otherwise.
// It is the one length rule every charged text is priced by.
func Tokens(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + 3) / 4
}

// CountTokens is the token count of text, Tokens(len(text)).
func CountTokens(text string) int { return Tokens(len(text)) }
