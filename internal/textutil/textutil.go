// Package textutil provides the lightweight natural-language substrate used
// across the repository: tokenization, stopword removal, a small suffix
// stemmer, and a tf-idf index scored by cosine similarity.
//
// Two consumers depend on it: the Archytas planner (archytas), which
// scores tool docstrings against user utterances, and the simulated LLM
// semantic fallback (internal/llm), which evaluates natural-language
// predicates against record text when no corpus ground truth is available.
package textutil

import (
	"math"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// stopwords is a compact English stopword list. It intentionally keeps
// domain-ish words ("data", "model") because those carry signal for tool
// routing.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "and": true, "or": true, "but": true,
	"if": true, "then": true, "else": true, "of": true, "to": true, "in": true,
	"on": true, "at": true, "by": true, "for": true, "with": true, "about": true,
	"is": true, "are": true, "was": true, "were": true, "be": true, "been": true,
	"being": true, "am": true, "do": true, "does": true, "did": true, "can": true,
	"could": true, "should": true, "would": true, "will": true, "shall": true,
	"may": true, "might": true, "must": true, "this": true, "that": true,
	"these": true, "those": true, "it": true, "its": true, "i": true, "we": true,
	"you": true, "they": true, "he": true, "she": true, "them": true, "us": true,
	"my": true, "our": true, "your": true, "their": true, "me": true,
	"as": true, "from": true, "into": true, "out": true, "up": true, "down": true,
	"not": true, "no": true, "so": true, "than": true, "too": true, "very": true,
	"just": true, "there": true, "here": true, "when": true, "where": true,
	"which": true, "who": true, "whom": true, "what": true, "how": true,
	"all": true, "any": true, "each": true, "some": true, "such": true,
	"only": true, "own": true, "same": true, "both": true, "more": true,
	"most": true, "other": true, "please": true, "want": true, "like": true,
	"would_like": true, "im": true, "id": true, "lets": true, "let": true,
}

// Tokenize splits text into lowercase word tokens. Runs of letters and
// digits form tokens; everything else is a separator. Apostrophes inside
// words are dropped ("don't" -> "dont") so contractions stay single tokens.
//
// ASCII bytes are classified inline; a rune is decoded only at a non-ASCII
// byte. A token that needs no lowercasing and holds no apostrophe is a
// substring of text, and only the other tokens are copied.
func Tokenize(text string) []string {
	toks := make([]string, 0, len(text)/8+1) // about one token per 8 bytes of prose
	var buf [64]byte
	tok := buf[:0]   // the current token, lowercased, apostrophes dropped
	verbatim := true // tok equals the len(tok) bytes of text before i
	for i := 0; i <= len(text); {
		var c byte // past the end acts as a separator
		if i < len(text) {
			c = text[i]
		}
		size := 1
		switch {
		case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
			tok = append(tok, c)
			i++
			continue
		case 'A' <= c && c <= 'Z':
			tok = append(tok, c+'a'-'A')
			verbatim = false
			i++
			continue
		case c == '\'':
			verbatim = false
			i++
			continue
		case c >= utf8.RuneSelf:
			var r rune
			r, size = utf8.DecodeRuneInString(text[i:])
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				lower := unicode.ToLower(r)
				tok = utf8.AppendRune(tok, lower)
				verbatim = verbatim && lower == r
				i += size
				continue
			}
			if r == '’' {
				verbatim = false
				i += size
				continue
			}
		}
		if len(tok) > 0 {
			if verbatim {
				toks = append(toks, text[i-len(tok):i])
			} else {
				toks = append(toks, string(tok))
			}
		}
		tok, verbatim = tok[:0], true
		i += size
	}
	return toks
}

// suffixRule is one stemmer rule: strip suf and append rep.
type suffixRule struct{ suf, rep string }

// suffixRules is the stemmer's rule list in priority order: the first rule
// whose suffix matches and leaves a long enough stem wins.
var suffixRules = []suffixRule{
	{"ization", "ize"}, {"ational", "ate"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"iveness", "ive"}, {"tional", "tion"},
	{"biliti", "ble"}, {"lessli", "less"},
	{"ation", "ate"}, {"izer", "ize"}, {"ator", "ate"},
	{"alism", "al"}, {"aliti", "al"}, {"iviti", "ive"},
	{"ements", ""}, {"ement", ""},
	{"ingly", ""}, {"edly", ""},
	{"ies", "y"}, {"ied", "y"},
	{"sses", "ss"}, {"ness", ""}, {"ion", ""},
	{"ing", ""}, {"ed", ""}, {"ly", ""}, {"es", ""},
	{"s", ""},
}

// rulesByLast[c] holds the rules whose suffix ends in byte c, in
// suffixRules order, so Stem only tries the suffixes that can match.
var rulesByLast = func() (t [256][]suffixRule) {
	for _, r := range suffixRules {
		c := r.suf[len(r.suf)-1]
		t[c] = append(t[c], r)
	}
	return t
}()

// Stem applies a tiny suffix-stripping stemmer (a pragmatic subset of
// Porter's rules). It is deliberately conservative: it only strips when the
// remaining stem is at least three characters, so short domain terms survive.
func Stem(w string) string {
	if len(w) <= 3 {
		return w
	}
	for _, r := range rulesByLast[w[len(w)-1]] {
		if !strings.HasSuffix(w, r.suf) {
			continue
		}
		n := len(w) - len(r.suf)
		if n+len(r.rep) < 3 {
			continue
		}
		if r.rep != "" {
			return w[:n] + r.rep
		}
		stem := w[:n]
		// Undouble trailing consonants introduced by -ing/-ed stripping
		// ("filtering"->"filter", "stopped"->"stop").
		if (r.suf == "ing" || r.suf == "ed") && len(stem) >= 4 {
			last, prev := stem[len(stem)-1], stem[len(stem)-2]
			if last == prev && !isVowel(rune(last)) && last != 'l' && last != 's' && last != 'z' {
				stem = stem[:len(stem)-1]
			}
		}
		return stem
	}
	return w
}

func isVowel(r rune) bool {
	switch r {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}

// Terms tokenizes, removes stopwords, and stems. This is the canonical text
// normalization used for all similarity computations in the repository.
func Terms(text string) []string {
	toks := Tokenize(text)
	out := toks[:0]
	for _, t := range toks {
		if stopwords[t] {
			continue
		}
		out = append(out, Stem(t))
	}
	return out
}

// Overlap returns |terms(a) ∩ terms(b)| / |terms(a)|: the fraction of a's
// normalized terms that also appear in b. Useful as an asymmetric "is the
// query covered by the document" score. Returns 0 when a has no terms.
func Overlap(a, b string) float64 {
	ta := Terms(a)
	if len(ta) == 0 {
		return 0
	}
	tb := map[string]bool{}
	for _, t := range Terms(b) {
		tb[t] = true
	}
	hit := 0
	seen := map[string]bool{}
	uniq := 0
	for _, t := range ta {
		if seen[t] {
			continue
		}
		seen[t] = true
		uniq++
		if tb[t] {
			hit++
		}
	}
	return float64(hit) / float64(uniq)
}

// Index is a tf-idf model over a fixed set of documents, built once with
// NewIndex. It keeps each document's terms in sorted order with their
// weights, and the document frequencies, so scoring a query tokenizes only
// the query.
type Index struct {
	docs    []indexedDoc
	docFreq map[string]int
}

// indexedDoc is one document's distinct terms in sorted order. w[i] is the
// tf-idf weight of terms[i]; wq[i] is its weight when the query holds the
// term too, which adds one to its document frequency.
type indexedDoc struct {
	terms []string
	w, wq []float64
}

// CountTerms returns the distinct normalized terms of text in sorted
// order, with each term's frequency. A fold over its result runs in one
// fixed order, unlike a range over a map, so float sums built from it are
// bit-identical from call to call.
func CountTerms(text string) (terms []string, tf []float64) {
	all := Terms(text)
	sort.Strings(all)
	terms, tf = all[:0], make([]float64, 0, len(all))
	for _, t := range all {
		if n := len(terms); n > 0 && terms[n-1] == t {
			tf[n-1]++
			continue
		}
		terms = append(terms, t)
		tf = append(tf, 1)
	}
	return terms, tf
}

// NewIndex builds a tf-idf index over docs.
func NewIndex(docs []string) *Index {
	ix := &Index{docs: make([]indexedDoc, len(docs)), docFreq: map[string]int{}}
	tfs := make([][]float64, len(docs))
	for i, text := range docs {
		ix.docs[i].terms, tfs[i] = CountTerms(text)
		for _, t := range ix.docs[i].terms {
			ix.docFreq[t]++
		}
	}
	for i := range ix.docs {
		d := &ix.docs[i]
		d.w, d.wq = make([]float64, len(d.terms)), make([]float64, len(d.terms))
		for k, t := range d.terms {
			df := ix.docFreq[t]
			d.w[k], d.wq[k] = tfs[i][k]*ix.idf(df), tfs[i][k]*ix.idf(df+1)
		}
	}
	return ix
}

// idf is the smoothed inverse document frequency of a term that occurs in
// df documents, the query counted as one more document of the corpus.
func (ix *Index) idf(df int) float64 {
	return math.Log(float64(len(ix.docs)+2)/float64(df+1)) + 1
}

// Scores returns the cosine similarity between the tf-idf vectors of query
// and of each document, in document order; 0 when either has no terms. The
// query joins the corpus as one extra document for the idf. Every sum runs
// in sorted term order, so equal inputs give bit-identical scores.
func (ix *Index) Scores(query string) []float64 {
	qterms, qtf := CountTerms(query)
	qw := make([]float64, len(qterms))
	var qnorm float64
	for i, t := range qterms {
		qw[i] = qtf[i] * ix.idf(ix.docFreq[t]+1)
		qnorm += qw[i] * qw[i]
	}
	qnorm = math.Sqrt(qnorm)
	out := make([]float64, len(ix.docs))
	for k, d := range ix.docs {
		var dot, dnorm float64
		j := 0
		for i, t := range d.terms {
			for j < len(qterms) && qterms[j] < t {
				j++
			}
			if j < len(qterms) && qterms[j] == t {
				dot += d.wq[i] * qw[j]
				dnorm += d.wq[i] * d.wq[i]
			} else {
				dnorm += d.w[i] * d.w[i]
			}
		}
		if dot != 0 {
			out[k] = dot / (qnorm * math.Sqrt(dnorm))
		}
	}
	return out
}

// Sentences splits text into sentences on ., !, ? followed by whitespace.
// It keeps abbreviating periods inside tokens like "e.g." imperfectly; this
// is adequate for the synthetic corpora which are generated with regular
// punctuation.
func Sentences(text string) []string {
	var out []string
	var b strings.Builder
	rs := []rune(text)
	for i := 0; i < len(rs); i++ {
		b.WriteRune(rs[i])
		if rs[i] == '.' || rs[i] == '!' || rs[i] == '?' {
			if i+1 >= len(rs) || unicode.IsSpace(rs[i+1]) {
				s := strings.TrimSpace(b.String())
				if s != "" {
					out = append(out, s)
				}
				b.Reset()
			}
		}
	}
	if s := strings.TrimSpace(b.String()); s != "" {
		out = append(out, s)
	}
	return out
}

// TruncateWords returns at most n whitespace-separated words of s, appending
// an ellipsis when truncation occurred.
func TruncateWords(s string, n int) string {
	fields := strings.Fields(s)
	if len(fields) <= n {
		return s
	}
	return strings.Join(fields[:n], " ") + "…"
}
