// Package corpus generates the synthetic, ground-truthed document
// collections behind every workload in this repro. Five domains are
// registered (see Domains): biomedical papers (the §3 scientific-discovery
// scenario), legal contracts (legal discovery), real-estate listings
// (real-estate search), customer-support tickets (triage/routing), and
// financial filings (numeric extraction).
//
// Every generated document carries a hidden Truth annotation (topic
// labels, extractable entity mentions, scalar fields, numbers). The
// simulated LLM in internal/llm reads it through its oracle to decide
// answers, and the metrics package scores pipeline outputs against it.
//
// Determinism guarantees: generation is a pure function of the domain
// config, whose Seed fixes every random choice — same config, same corpus,
// byte for byte, on any platform. Each domain offers two equivalent APIs:
// a slice API (GenerateBiomed, GenerateSupport, ...) that materializes the
// corpus, and a streaming API (Generator, NewSupportGenerator, ...) that
// yields documents one at a time; for a given config the two produce
// identical document sequences. The support and finance generators are
// index-addressable — document i depends only on (seed, i) — so streaming
// them runs in constant memory at any corpus size. Corpora can be spilled
// to disk in the NDJSON format (one Doc per line plus a checksummed
// manifest; see WriteNDJSON) and registered file-backed through
// internal/dataset without loading them whole.
//
// The Truth contract: a Doc's Truth must be answerable from its Text —
// every Fields value, Mention field value, and Numbers rendering appears
// in the text, and boolean Labels agree with what the text states — so
// the oracle's gold answers are always ones a perfect real model could
// also produce. ValidateDoc (plus per-domain checks via
// Domain.Validate) enforces this; `pzcorpus validate` applies it to
// on-disk corpora.
package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// Truth is the hidden ground-truth annotation attached to a generated
// document. It is stored in a record's truth slot. The JSON tags define
// its on-disk shape in both the NDJSON corpus format and the directory
// ground-truth sidecar.
//
// A Truth takes one of two forms. A generated or in-memory document's,
// or one decoded into a Doc, holds its parts in the exported fields. A
// record scanned from an NDJSON corpus, loaded from a folder with a truth
// sidecar or decoded off the cluster wire holds it packed: one string,
// the corpus writer's rendering, with the exported fields nil (see
// Packed). The decoder packs a truth only when its input holds it in
// exactly those bytes, and then copies them; any other input takes the
// encoding/json fallback and gives the map form. Read a truth of either
// form through View; TruthOf gives a
// packed one's maps, built afresh (and allocated) on every call, so loops
// over records read through views instead. Both forms marshal to the same
// JSON (see MarshalJSON).
type Truth struct {
	// Topics are the subjects this document is genuinely about, e.g.
	// ["colorectal cancer", "gene mutation"].
	Topics []string `json:"topics,omitempty"`
	// Mentions are extractable entities embedded in the text, e.g. public
	// dataset references. Kind discriminates entity families.
	Mentions []Mention `json:"mentions,omitempty"`
	// Labels are named boolean properties ("indemnification": true).
	Labels map[string]bool `json:"labels,omitempty"`
	// Fields are scalar extractable string attributes ("party_a": "...").
	Fields map[string]string `json:"fields,omitempty"`
	// Numbers are numeric attributes ("price": 650000).
	Numbers map[string]float64 `json:"numbers,omitempty"`

	// packed is the corpus writer's rendering of a packed truth, and ""
	// for the other form.
	packed string
}

// Mention is one extractable entity with named attributes.
type Mention struct {
	Kind   string            `json:"kind"`
	Fields map[string]string `json:"fields"`
}

// Doc is one generated document before it is wrapped in a record: a
// filename, full text, and its ground truth. A Doc is also one line of
// the NDJSON corpus format (see WriteNDJSON), which the JSON tags define.
type Doc struct {
	Filename string `json:"filename"`
	Text     string `json:"text"`
	Truth    *Truth `json:"truth"`
}

// HasTopic reports whether the document is about a topic whose name shares
// terms with the query (case-insensitive substring either way).
func (t *Truth) HasTopic(query string) bool { return t.View().HasTopic(query) }

// MentionsOfKind returns the mentions of the given kind, with their
// fields in maps (built afresh for a packed truth).
func (t *Truth) MentionsOfKind(kind string) []Mention {
	var out []Mention
	t.View().EachMention(func(k string, fields FieldsView) bool {
		if k == kind {
			out = append(out, Mention{Kind: k, Fields: fields.toMap()})
		}
		return true
	})
	return out
}

// pick returns a random element of xs.
func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// shuffled returns a shuffled copy of xs.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := make([]T, len(xs))
	copy(out, xs)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sentenceJoin joins sentences with spaces and ensures terminal periods.
func sentenceJoin(ss ...string) string {
	var b strings.Builder
	for i, s := range ss {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(s)
		if !strings.HasSuffix(s, ".") && !strings.HasSuffix(s, "!") && !strings.HasSuffix(s, "?") {
			b.WriteString(".")
		}
	}
	return b.String()
}

// slugify converts a title into a filename stem.
func slugify(s string) string {
	var b strings.Builder
	lastDash := true
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			lastDash = false
		default:
			if !lastDash {
				b.WriteRune('-')
				lastDash = true
			}
		}
	}
	return strings.Trim(b.String(), "-")
}

// fmtUSD renders a dollar amount with thousands separators.
func fmtUSD(v float64) string {
	return "$" + groupDigits(int64(v))
}

// groupDigits renders n with thousands separators ("650,000").
func groupDigits(n int64) string {
	s := fmt.Sprintf("%d", n)
	neg := ""
	if strings.HasPrefix(s, "-") {
		neg, s = "-", s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	return neg + strings.Join(parts, ",")
}
