package llm

import (
	"strings"

	"repro/internal/lru"
	"repro/internal/textutil"
)

// memoBytes bounds each of a Service's memos, which keep their least
// recently used entries out first.
const memoBytes = 4 << 20

// termsMemo maps a text to its textutil.Terms, so that the oracle
// tokenizes each query constant it meets on every call (a predicate, a
// truth label, a field name) once per Service. A nil *termsMemo memoizes
// nothing.
type termsMemo = lru.Cache[string, []string]

// termsOf returns textutil.Terms(text), through tm. The result is shared
// between callers and must be treated as read-only.
func termsOf(tm *termsMemo, text string) []string {
	if tm == nil {
		return textutil.Terms(text)
	}
	if t, ok := tm.Get(text); ok {
		return t
	}
	// A label or key may be a substring of a whole decoded document, which
	// the memo must not keep alive; the terms are substrings of the copy.
	text = strings.Clone(text)
	t := textutil.Terms(text)
	tm.Put(text, t)
	return t
}

// termsSize is the bytes a terms entry is counted at: its text, and each
// term's header and bytes.
func termsSize(text string, terms []string) int {
	n := len(text)
	for _, t := range terms {
		n += 16 + len(t)
	}
	return n
}
