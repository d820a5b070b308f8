package llm

import (
	"strings"
	"sync"

	"repro/internal/textutil"
)

// memoBytes bounds each of a Service's memos.
const memoBytes = 4 << 20

// memo maps a key to a value derived from the text the key stands for,
// counting each entry at the size its caller gives. Once it holds
// memoBytes it evicts its oldest entries first. Safe for concurrent use.
type memo[K comparable, V any] struct {
	mu    sync.RWMutex
	vals  map[K]V
	order []memoKey[K] // keys of vals, oldest first
	bytes int
}

// memoKey is one memoized key and the bytes its entry is counted at.
type memoKey[K comparable] struct {
	key  K
	size int
}

// get returns the value memoized under key.
func (m *memo[K, V]) get(key K) (V, bool) {
	m.mu.RLock()
	v, ok := m.vals[key]
	m.mu.RUnlock()
	return v, ok
}

// put memoizes v under key, counted as size bytes, and returns it, or the
// value another caller memoized under key first. A value larger than the
// whole memo is returned without being kept.
func (m *memo[K, V]) put(key K, v V, size int) V {
	if size > memoBytes {
		return v
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prior, ok := m.vals[key]; ok {
		return prior
	}
	for m.bytes+size > memoBytes {
		oldest := m.order[0]
		m.order[0] = memoKey[K]{}
		m.order = m.order[1:]
		m.bytes -= oldest.size
		delete(m.vals, oldest.key)
	}
	if m.vals == nil {
		m.vals = map[K]V{}
	}
	m.vals[key] = v
	m.order = append(m.order, memoKey[K]{key, size})
	m.bytes += size
	return v
}

// termsMemo maps a text to its textutil.Terms, so that the oracle
// tokenizes each query constant it meets on every call (a predicate, a
// truth label, a field name) once per Service. A nil *termsMemo memoizes
// nothing.
type termsMemo struct{ memo[string, []string] }

// terms returns textutil.Terms(text). The result is shared between
// callers and must be treated as read-only.
func (m *termsMemo) terms(text string) []string {
	if m == nil {
		return textutil.Terms(text)
	}
	if t, ok := m.get(text); ok {
		return t
	}
	// A label or key may be a substring of a whole decoded document, which
	// the memo must not keep alive; the terms are substrings of the copy.
	text = strings.Clone(text)
	t := textutil.Terms(text)
	return m.put(text, t, termsSize(text, t))
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
