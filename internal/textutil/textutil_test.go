package textutil

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenizeBasic(t *testing.T) {
	got := Tokenize("Filter the Papers, about colorectal-cancer!")
	want := []string{"filter", "the", "papers", "about", "colorectal", "cancer"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeApostrophes(t *testing.T) {
	got := Tokenize("don't can't we're")
	want := []string{"dont", "cant", "were"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEmptyAndPunct(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("Tokenize(\"\") = %v", got)
	}
	if got := Tokenize("...!!!,,,"); len(got) != 0 {
		t.Errorf("Tokenize(punct) = %v", got)
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("Tumör Zürich café")
	want := []string{"tumör", "zürich", "café"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestStem(t *testing.T) {
	cases := map[string]string{
		"filtering":   "filter",
		"filtered":    "filter",
		"filters":     "filter",
		"datasets":    "dataset",
		"extraction":  "extract",
		"studies":     "study",
		"cancers":     "cancer",
		"running":     "run",
		"stopped":     "stop",
		"cat":         "cat",
		"aggregation": "aggregate",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemNeverTooShort(t *testing.T) {
	f := func(s string) bool {
		w := strings.ToLower(s)
		st := Stem(w)
		return len(w) <= 3 || len(st) >= 3 || st == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTermsDropsStopwords(t *testing.T) {
	got := Terms("the papers are about colorectal cancer")
	for _, g := range got {
		if stopwords[g] {
			t.Errorf("stopword %q survived Terms", g)
		}
	}
	joined := strings.Join(got, " ")
	if !strings.Contains(joined, "cancer") || !strings.Contains(joined, "colorectal") {
		t.Errorf("content words missing from %v", got)
	}
}

func TestCosineIdentical(t *testing.T) {
	text := "colorectal cancer gene mutation study"
	if got := NewIndex([]string{text, "mortgage refinancing"}).Scores(text)[0]; math.Abs(got-1) > 1e-9 {
		t.Fatalf("self-cosine = %v, want 1", got)
	}
}

func TestCosineOrthogonal(t *testing.T) {
	if got := NewIndex([]string{"colorectal cancer"}).Scores("mortgage refinancing")[0]; got != 0 {
		t.Fatalf("orthogonal cosine = %v, want 0", got)
	}
}

func TestCosineEmpty(t *testing.T) {
	ix := NewIndex([]string{"", "x y z"})
	if got := ix.Scores("x y z")[0]; got != 0 {
		t.Fatalf("empty document cosine = %v", got)
	}
	if got := ix.Scores("the of")[1]; got != 0 {
		t.Fatalf("empty query cosine = %v", got)
	}
}

func TestCosineSymmetricAndBounded(t *testing.T) {
	f := func(a, b string) bool {
		x := NewIndex([]string{a}).Scores(b)[0]
		y := NewIndex([]string{b}).Scores(a)[0]
		return math.Abs(x-y) < 1e-9 && x >= 0 && x <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverlap(t *testing.T) {
	if got := Overlap("colorectal cancer", "a study of colorectal cancer in adults"); got != 1 {
		t.Errorf("full overlap = %v, want 1", got)
	}
	if got := Overlap("colorectal cancer", "real estate listings"); got != 0 {
		t.Errorf("no overlap = %v, want 0", got)
	}
	half := Overlap("colorectal mortgage", "colorectal things")
	if math.Abs(half-0.5) > 1e-9 {
		t.Errorf("half overlap = %v, want 0.5", half)
	}
}

func TestOverlapEmptyQuery(t *testing.T) {
	if got := Overlap("", "anything"); got != 0 {
		t.Errorf("Overlap(empty) = %v", got)
	}
	if got := Overlap("the a of", "anything"); got != 0 {
		t.Errorf("Overlap(stopwords only) = %v", got)
	}
}

func TestCorpusIDFOrdering(t *testing.T) {
	ix := NewIndex([]string{
		"colorectal cancer study",
		"colorectal cancer dataset",
		"breast cancer dataset",
		"mortgage refinancing guide",
	})
	if ix.docFreq["cancer"] != 3 || ix.docFreq[Stem("mortgage")] != 1 {
		t.Fatalf("docFreq = %v", ix.docFreq)
	}
	// "cancer" appears in 3 docs, "mortgage" in 1: rarer term has higher IDF.
	common, rare := ix.idf(ix.docFreq["cancer"]), ix.idf(ix.docFreq[Stem("mortgage")])
	if common >= rare {
		t.Errorf("IDF(cancer)=%v should be < IDF(mortgage)=%v", common, rare)
	}
}

func TestCorpusSimilarityRanks(t *testing.T) {
	docs := []string{
		"This paper studies colorectal cancer gene mutation in tumor cells.",
		"We present a real estate pricing model for urban listings.",
		"A legal analysis of indemnification clauses in commercial contracts.",
	}
	scores := NewIndex(docs).Scores("papers about colorectal cancer")
	best, bestScore := -1, -1.0
	for i, s := range scores {
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	if best != 0 {
		t.Fatalf("best doc = %d (score %v), want 0", best, bestScore)
	}
}

func TestIndexScoresDeterministic(t *testing.T) {
	docs := []string{
		"Filter the dataset records with a natural language predicate condition about papers, contracts or listings.",
		"Extract structured fields such as the dataset name, description and url from each record into a schema.",
		"Run the pipeline under the chosen policy and report the cost, runtime and quality of the output records.",
	}
	q := "filter papers about colorectal cancer and extract the dataset name, description and url then run"
	want := NewIndex(docs).Scores(q)
	for i := 0; i < 100; i++ {
		if got := NewIndex(docs).Scores(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: Scores = %v, want %v", i, got, want)
		}
	}
}

func TestIndexTermCountsSorted(t *testing.T) {
	terms, tf := CountTerms("beta alpha beta the gamma alpha beta")
	if !reflect.DeepEqual(terms, []string{"alpha", "beta", "gamma"}) || !reflect.DeepEqual(tf, []float64{2, 3, 1}) {
		t.Fatalf("CountTerms = %v %v", terms, tf)
	}
}

func TestSentences(t *testing.T) {
	got := Sentences("First sentence. Second one! Third? trailing")
	want := []string{"First sentence.", "Second one!", "Third?", "trailing"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Sentences = %v, want %v", got, want)
	}
}

func TestSentencesNoSplitInsideToken(t *testing.T) {
	got := Sentences("Visit https://data.example.org/x.csv for data. Done.")
	if len(got) != 2 {
		t.Fatalf("Sentences = %v, want 2 sentences", got)
	}
}

func TestTruncateWords(t *testing.T) {
	if got := TruncateWords("a b c d", 2); got != "a b…" {
		t.Errorf("TruncateWords = %q", got)
	}
	if got := TruncateWords("a b", 5); got != "a b" {
		t.Errorf("no-op truncate = %q", got)
	}
}

func TestTermFreqCounts(t *testing.T) {
	terms, tf := CountTerms("Cancer cancer dataset")
	if !reflect.DeepEqual(terms, []string{"cancer", "dataset"}) || !reflect.DeepEqual(tf, []float64{2, 1}) {
		t.Errorf("CountTerms = %v %v, want [cancer dataset] [2 1]", terms, tf)
	}
}

// refTokenize, refStem and refTerms are the rune-at-a-time tokenizer and
// linear suffix-list stemmer that Tokenize, Stem and Terms must agree with.
func refTokenize(text string) []string {
	var toks []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			toks = append(toks, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '\'' || r == '’':
		default:
			flush()
		}
	}
	flush()
	return toks
}

func refStem(w string) string {
	if len(w) <= 3 {
		return w
	}
	suffixes := []struct {
		suf, rep string
	}{
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
	for _, s := range suffixes {
		if strings.HasSuffix(w, s.suf) {
			stem := w[:len(w)-len(s.suf)] + s.rep
			if len(stem) >= 3 {
				if (s.suf == "ing" || s.suf == "ed") && len(stem) >= 4 {
					last := stem[len(stem)-1]
					prev := stem[len(stem)-2]
					if last == prev && !isVowel(rune(last)) && last != 'l' && last != 's' && last != 'z' {
						stem = stem[:len(stem)-1]
					}
				}
				return stem
			}
		}
	}
	return w
}

func refTerms(text string) []string {
	var out []string
	for _, t := range refTokenize(text) {
		if stopwords[t] {
			continue
		}
		out = append(out, refStem(t))
	}
	return out
}

// termsSeeds covers ASCII prose, case, digits, straight and curly
// apostrophes, non-ASCII letters, invalid UTF-8 and every stemmer suffix,
// alone and inside words.
func termsSeeds() []string {
	seeds := []string{
		"",
		"Filter the Papers, about colorectal-cancer!",
		"don't can't we're 'quoted' ''' o'Neil",
		"The STUDIES were FILTERED; 42 datasets (v2.0) at https://example.org/x?id=7",
		"Tumör Zürich café naïve façade",
		"don’t we’re ’tis",
		"ünïcödé MIXED with ascii_words and\ttabs\nnewlines",
		"stopped running hopping filling buzzing fizzed passed",
		"a an the AND Or BUT",
		"\x00\x7f\xff\xfe invalid utf8",
		"Straße İstanbul ǅemal ΣΊΣΥΦΟΣ",
	}
	for _, r := range suffixRules {
		seeds = append(seeds, r.suf, "x"+r.suf, "ab"+r.suf, "abc"+r.suf,
			"stopp"+r.suf, "Walk"+strings.ToUpper(r.suf))
	}
	return seeds
}

// sameTerms compares term lists, a nil list equal to an empty one.
func sameTerms(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func TestTermsMatchesReference(t *testing.T) {
	for _, s := range termsSeeds() {
		if got, want := Terms(s), refTerms(s); !sameTerms(got, want) {
			t.Errorf("Terms(%q) = %q, want %q", s, got, want)
		}
		for _, w := range append(refTokenize(s), s) {
			if got, want := Stem(w), refStem(w); got != want {
				t.Errorf("Stem(%q) = %q, want %q", w, got, want)
			}
		}
	}
}

func FuzzTermsMatchesReference(f *testing.F) {
	for _, s := range termsSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Terms(s), refTerms(s); !sameTerms(got, want) {
			t.Fatalf("Terms(%q) = %q, want %q", s, got, want)
		}
		if got, want := Tokenize(s), refTokenize(s); !sameTerms(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
		}
		if got, want := Stem(s), refStem(s); got != want {
			t.Fatalf("Stem(%q) = %q, want %q", s, got, want)
		}
	})
}
