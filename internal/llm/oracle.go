package llm

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"repro/internal/corpus"
	"repro/internal/schema"
	"repro/internal/textutil"
)

// decide implements TaskFilter: consult the corpus ground truth when the
// record carries it, otherwise fall back to lexical semantics over the
// record text; then apply deterministic model-quality noise. It tokenizes
// through tm, and reads the truth through one view, which builds no map.
func decide(tm *termsMemo, card ModelCard, req Request, resp *Response) {
	truth := corpus.RecordTruth(req.Record)
	var want bool
	switch {
	case truth != nil:
		want = goldFilterDecision(tm, truth.View(), req.Predicate)
	default:
		want = textutil.Overlap(req.Predicate, req.Record.Text()) >= 0.6
	}
	// Model noise: flip the gold answer with probability 1-accuracy,
	// deterministically per (model, predicate, record content).
	acc := card.FilterAccuracy()
	var hex [16]byte
	u := unit("filter", card.Name, req.Predicate, string(hexDigest(req.Record, &hex)))
	got := want
	if u < 1-acc {
		got = !want
	}
	resp.Decision = got
	// Self-assessed confidence, derived from the same noise draw:
	// correct answers score in [0.5, 1), wrong answers in [0, 0.55) —
	// mostly-calibrated self-knowledge with a small overconfident-wrong
	// tail in [0.5, 0.55), so a cascade thresholding at 0.5 escalates
	// almost every mistake but settles a tiny residue of them, the way a
	// real confidence signal behaves.
	if got == want {
		resp.Confidence = 0.5 + 0.5*(u-(1-acc))/acc
	} else {
		resp.Confidence = 0.55 * u / (1 - acc)
	}
	resp.Text = strconv.FormatBool(got)
}

// GoldFilterDecision evaluates a natural-language predicate against ground
// truth. A label matches when every one of its terms is among the
// predicate's terms; the answer is the conjunction of all matching labels
// ("colorectal studies that use public datasets" needs both labels true),
// and topic matching decides only when no label matches. It defines the
// gold answer the simulated models approximate and the metrics package
// scores against. The truth may be of either form (see corpus.Truth).
func GoldFilterDecision(truth *corpus.Truth, predicate string) bool {
	return goldFilterDecision(nil, truth.View(), predicate)
}

// goldFilterDecision is GoldFilterDecision over a view, tokenizing
// through tm.
func goldFilterDecision(tm *termsMemo, truth corpus.TruthView, predicate string) bool {
	predTerms := termsOf(tm, predicate)
	matched, answer := false, true
	truth.EachLabel(func(label string, val bool) bool {
		if terms := termsOf(tm, label); len(terms) > 0 && containsAll(predTerms, terms) {
			matched = true
			answer = answer && val
		}
		return true
	})
	if matched {
		return answer
	}
	return truth.HasTopic(predicate)
}

// containsAll reports whether every term of want occurs in have.
func containsAll(have, want []string) bool {
	for _, w := range want {
		if !slices.Contains(have, w) {
			return false
		}
	}
	return true
}

// extract implements TaskExtract. With ground truth, it pulls entity
// mentions or scalar fields matching the requested schema fields and
// applies per-entity/per-field model noise; without truth it falls back to
// heuristic extraction from the record text. It tokenizes through tm, and
// reads the truth through one view, which builds no map.
func extract(tm *termsMemo, card ModelCard, req Request, resp *Response) {
	truth := corpus.RecordTruth(req.Record)
	var exs []map[string]string
	if truth != nil {
		exs = truthExtract(tm, card, req, truth.View())
	} else {
		exs = heuristicExtract(req)
	}
	if !req.OneToMany && len(exs) > 1 {
		exs = exs[:1]
	}
	resp.Extractions = exs
	resp.Text = renderExtractions(req.Fields, exs)
}

// truthExtract matches the requested fields against ground-truth mentions
// first, then scalar fields.
func truthExtract(tm *termsMemo, card ModelCard, req Request, truth corpus.TruthView) []map[string]string {
	acc := card.ExtractAccuracy() + req.QualityBoost
	if acc > 1 {
		acc = 1
	}
	var hex [16]byte
	digest := string(hexDigest(req.Record, &hex))
	var text string // the record text, built on first heuristic use
	fallback := func(f schema.Field) string {
		if text == "" {
			text = req.Record.Text()
		}
		return heuristicField(f, text)
	}

	// Choose the mention kind with the best coverage of requested fields.
	kind, coverage := bestMentionKind(tm, req.Fields, truth)
	if coverage >= 0.5 {
		var out []map[string]string
		i := -1 // the mention's index among those of kind
		truth.EachMention(func(k string, fields corpus.FieldsView) bool {
			if k != kind {
				return true
			}
			i++
			var ib [20]byte
			idx := string(strconv.AppendInt(ib[:0], int64(i), 10))
			// Per-entity recall: a weaker model misses some entities
			// entirely.
			name, _ := fields.Get("name")
			uEnt := unit("ent", card.Name, digest, idx, name)
			if uEnt < 1-acc {
				return true
			}
			ex := map[string]string{}
			for _, f := range req.Fields {
				v, ok := matchField(tm, f, fields, truth)
				if !ok {
					v = fallback(f)
				}
				// Per-field precision: a weaker model garbles some values.
				uFld := unit("fld", card.Name, digest, idx, f.Name)
				if uFld < (1-acc)/2 {
					v = garble(v)
				}
				ex[f.Name] = v
			}
			out = append(out, ex)
			return true
		})
		return out
	}

	// Scalar extraction: one entity per record. When the ground truth
	// declares none of the requested attributes, a careful model reports
	// nothing rather than hallucinating from surrounding text — so
	// truth-bearing records with no extractable content yield no entity.
	ex := make(map[string]string, len(req.Fields))
	found := false
	for _, f := range req.Fields {
		v, ok := matchField(tm, f, corpus.FieldsView{}, truth)
		if !ok {
			v = fallback(f)
		} else {
			found = true
		}
		uFld := unit("sfld", card.Name, digest, f.Name)
		if uFld < (1-acc)/2 {
			v = garble(v)
		}
		ex[f.Name] = v
	}
	if !found {
		return nil
	}
	return []map[string]string{ex}
}

func allEmpty(m map[string]string) bool {
	for _, v := range m {
		if v != "" {
			return false
		}
	}
	return true
}

// bestMentionKind returns the mention kind whose field names cover the
// largest fraction of the requested fields.
func bestMentionKind(tm *termsMemo, fields []schema.Field, truth corpus.TruthView) (string, float64) {
	if len(fields) == 0 {
		return "", 0
	}
	cov := map[string]int{}
	truth.EachMention(func(kind string, mf corpus.FieldsView) bool {
		if _, seen := cov[kind]; seen {
			return true
		}
		n := 0
		for _, f := range fields {
			if _, ok := matchKey(tm, f.Name, mf); ok {
				n++
			}
		}
		cov[kind] = n
		return true
	})
	bestKind, bestN := "", -1
	for k, n := range cov {
		if n > bestN || (n == bestN && k < bestKind) {
			bestKind, bestN = k, n
		}
	}
	if bestN <= 0 {
		return "", 0
	}
	return bestKind, float64(bestN) / float64(len(fields))
}

// matchField resolves a requested schema field against mention fields
// and/or the truth's scalar fields and numbers, using stemmed-name fuzzy
// matching ("dataset_name" matches "name", "public_url" matches "url").
// Among numbers, as among fields, the smallest matching name wins.
func matchField(tm *termsMemo, f schema.Field, mention corpus.FieldsView, truth corpus.TruthView) (string, bool) {
	if v, ok := matchKey(tm, f.Name, mention); ok {
		return v, true
	}
	if v, ok := matchKey(tm, f.Name, truth.Fields()); ok {
		return v, true
	}
	bestKey, best, found := "", 0.0, false
	truth.EachNumber(func(k string, n float64) bool {
		if keysMatch(tm, f.Name, k) && (!found || k < bestKey) {
			bestKey, best, found = k, n, true
		}
		return true
	})
	switch {
	case !found:
		return "", false
	case f.Type == schema.Int:
		return fmt.Sprintf("%d", int64(best)), true
	}
	return strings.TrimSuffix(strings.TrimSuffix(fmt.Sprintf("%.2f", best), "0"), ".0"), true
}

// matchKey resolves want against m's keys: exactly, then the smallest
// fuzzily matching key, so the answer does not depend on map order.
func matchKey(tm *termsMemo, want string, m corpus.FieldsView) (string, bool) {
	if v, ok := m.Get(want); ok {
		return v, true
	}
	bestKey, best, found := "", "", false
	m.Each(func(k, v string) bool {
		if keysMatch(tm, want, k) && (!found || k < bestKey) {
			bestKey, best, found = k, v, true
		}
		return true
	})
	return best, found
}

// keysMatch reports whether two field names refer to the same attribute:
// equal, or one's stemmed term set contains the other's. An underscore
// separates terms as a space does. It tokenizes through tm.
func keysMatch(tm *termsMemo, a, b string) bool {
	if a == b {
		return true
	}
	ta, tb := termsOf(tm, a), termsOf(tm, b)
	if len(ta) == 0 || len(tb) == 0 {
		return false
	}
	return containsAll(ta, tb) || containsAll(tb, ta)
}

// garble corrupts a value the way a weak model does: it keeps the shape but
// damages the content, so quality metrics can detect the error.
func garble(v string) string {
	if v == "" {
		return ""
	}
	fields := strings.Fields(v)
	if len(fields) == 1 {
		// Mangle single tokens (names, URLs) detectably.
		return v + "-x"
	}
	return fields[0] + " (unclear)"
}

var urlRE = regexp.MustCompile(`https?://[^\s)>\]"']+`)
var dateRE = regexp.MustCompile(`\b\d{4}-\d{2}-\d{2}\b`)
var moneyRE = regexp.MustCompile(`\$[\d,]+`)

// cleanURL strips sentence punctuation that the URL regex swallows when a
// link ends a sentence.
func cleanURL(u string) string { return strings.TrimRight(u, ".,;:!?") }

// findURLs extracts cleaned URLs from text.
func findURLs(text string) []string {
	raw := urlRE.FindAllString(text, -1)
	out := make([]string, 0, len(raw))
	for _, u := range raw {
		if c := cleanURL(u); c != "" {
			out = append(out, c)
		}
	}
	return out
}

// heuristicExtract extracts entities from raw text without ground truth —
// the path user-uploaded data takes. It keys off URL occurrences: each URL
// seeds one entity, with name/description guessed from surrounding text.
func heuristicExtract(req Request) []map[string]string {
	text := req.Record.Text()
	urls := findURLs(text)
	wantsURL := false
	for _, f := range req.Fields {
		if strings.Contains(f.Name, "url") || strings.Contains(f.Name, "link") {
			wantsURL = true
		}
	}
	if wantsURL && len(urls) > 0 {
		var out []map[string]string
		for _, u := range urls {
			ex := map[string]string{}
			for _, f := range req.Fields {
				switch {
				case strings.Contains(f.Name, "url") || strings.Contains(f.Name, "link"):
					ex[f.Name] = u
				default:
					ex[f.Name] = contextAround(text, u)
				}
			}
			out = append(out, ex)
		}
		return out
	}
	ex := map[string]string{}
	hit := false
	for _, f := range req.Fields {
		v := heuristicField(f, text)
		if v != "" {
			hit = true
		}
		ex[f.Name] = v
	}
	if !hit {
		return nil
	}
	return []map[string]string{ex}
}

// heuristicField guesses a single field value from a record's text by
// field-name conventions.
func heuristicField(f schema.Field, text string) string {
	name := strings.ToLower(f.Name)
	switch {
	case strings.Contains(name, "url") || strings.Contains(name, "link"):
		if m := urlRE.FindString(text); m != "" {
			return cleanURL(m)
		}
	case strings.Contains(name, "date"):
		if m := dateRE.FindString(text); m != "" {
			return m
		}
	case strings.Contains(name, "price") || strings.Contains(name, "cost") || strings.Contains(name, "fee"):
		if m := moneyRE.FindString(text); m != "" {
			return strings.ReplaceAll(strings.TrimPrefix(m, "$"), ",", "")
		}
	case strings.Contains(name, "title") || strings.Contains(name, "name"):
		if line := firstLine(text); line != "" {
			return textutil.TruncateWords(line, 12)
		}
	case strings.Contains(name, "desc") || strings.Contains(name, "summary"):
		if ss := textutil.Sentences(text); len(ss) > 1 {
			return textutil.TruncateWords(ss[1], 24)
		}
	}
	return ""
}

func firstLine(text string) string {
	for _, line := range strings.Split(text, "\n") {
		if s := strings.TrimSpace(line); s != "" {
			return s
		}
	}
	return ""
}

// contextAround returns a short window of words preceding needle in text —
// the heuristic "description" of a URL mention.
func contextAround(text, needle string) string {
	i := strings.Index(text, needle)
	if i < 0 {
		return ""
	}
	start := i - 120
	if start < 0 {
		start = 0
	}
	window := strings.TrimSpace(text[start:i])
	return textutil.TruncateWords(window, 16)
}

// renderExtractions produces the JSON-ish text a real model would emit, so
// output-token accounting reflects extraction size. Names and values are
// quoted as %q would quote them.
func renderExtractions(fields []schema.Field, exs []map[string]string) string {
	if len(exs) == 0 {
		return "[]"
	}
	var stack [512]byte
	b := append(stack[:0], '[')
	for i, ex := range exs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, '{')
		for j, f := range fields {
			if j > 0 {
				b = append(b, ", "...)
			}
			b = strconv.AppendQuote(b, f.Name)
			b = append(b, ": "...)
			b = strconv.AppendQuote(b, ex[f.Name])
		}
		b = append(b, '}')
	}
	b = append(b, ']')
	return string(b)
}
