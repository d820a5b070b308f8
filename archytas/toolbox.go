package archytas

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/lru"
	"repro/internal/textutil"
)

// Toolbox holds the registered tools and routes utterances to them by
// docstring similarity ("The Archytas agent will read tool code as natural
// language, and consider its doc-string and input/output parameters in
// order to decide whether to use it").
type Toolbox struct {
	tools map[string]*Tool
	order []string
	// includeExamples controls whether docstring examples join the routing
	// text (ablated by experiment E8).
	includeExamples bool

	// mu guards index, the docstring tf-idf index that Route and RouteByDoc
	// build on first use; Register and WithoutExamples drop it.
	mu    sync.Mutex
	index *textutil.Index
}

// NewToolbox returns an empty toolbox (examples included in routing).
func NewToolbox() *Toolbox {
	return &Toolbox{tools: map[string]*Tool{}, includeExamples: true}
}

// WithoutExamples disables docstring examples in routing text; returns the
// toolbox for chaining.
func (tb *Toolbox) WithoutExamples() *Toolbox {
	tb.includeExamples = false
	tb.dropIndex()
	return tb
}

// Register adds a tool. Duplicate names are an error.
func (tb *Toolbox) Register(t *Tool) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if _, dup := tb.tools[t.Name]; dup {
		return fmt.Errorf("archytas: tool %q already registered", t.Name)
	}
	tb.tools[t.Name] = t
	tb.order = append(tb.order, t.Name)
	tb.dropIndex()
	return nil
}

func (tb *Toolbox) dropIndex() {
	tb.mu.Lock()
	tb.index = nil
	tb.mu.Unlock()
}

// MustRegister is Register that panics on error; for static tool sets.
func (tb *Toolbox) MustRegister(t *Tool) {
	if err := tb.Register(t); err != nil {
		panic(err)
	}
}

// Get returns the named tool.
func (tb *Toolbox) Get(name string) (*Tool, error) {
	t, ok := tb.tools[name]
	if !ok {
		return nil, fmt.Errorf("archytas: no tool %q (have: %s)", name, strings.Join(tb.Names(), ", "))
	}
	return t, nil
}

// Names returns tool names in registration order.
func (tb *Toolbox) Names() []string {
	out := make([]string, len(tb.order))
	copy(out, tb.order)
	return out
}

// Len returns the number of registered tools.
func (tb *Toolbox) Len() int { return len(tb.tools) }

// Score is one routing candidate.
type Score struct {
	// Tool is the candidate.
	Tool *Tool
	// Similarity is the docstring tf-idf cosine against the utterance.
	Similarity float64
	// Extractable reports whether the tool's slot extractor accepted the
	// utterance.
	Extractable bool
	// Args are the extracted arguments when Extractable.
	Args map[string]any
}

// Route ranks all tools against an utterance: extractable tools first, then
// by docstring similarity, then registration order for determinism.
func (tb *Toolbox) Route(utterance string) []Score {
	scores := tb.similarities(utterance)
	for i := range scores {
		if extract := scores[i].Tool.Extract; extract != nil {
			if args, ok := extract(utterance); ok {
				scores[i].Extractable = true
				scores[i].Args = args
			}
		}
	}
	rank(scores)
	return scores
}

// RouteByDoc ranks tools purely by docstring similarity, ignoring slot
// extractors. This is the paper's docstring-driven selection in isolation;
// experiment E8 uses it to measure the contribution of docstring examples.
func (tb *Toolbox) RouteByDoc(utterance string) []Score {
	scores := tb.similarities(utterance)
	rank(scores)
	return scores
}

// similarities scores every tool's docstring against the utterance, in
// registration order. The docstrings are indexed on the first call after
// the tool set or the routing text changes.
func (tb *Toolbox) similarities(utterance string) []Score {
	tb.mu.Lock()
	if tb.index == nil {
		docs := make([]string, len(tb.order))
		for i, name := range tb.order {
			docs[i] = tb.tools[name].DocText(tb.includeExamples)
		}
		tb.index = sharedIndex(docs)
	}
	index := tb.index
	tb.mu.Unlock()
	sims := index.Scores(utterance)
	scores := make([]Score, len(tb.order))
	for i, name := range tb.order {
		scores[i] = Score{Tool: tb.tools[name], Similarity: sims[i]}
	}
	return scores
}

// indexes shares docstring indexes, which are immutable, between
// toolboxes with the same routing text: every chat session registers the
// same tools. It keeps the 16 most recently used.
var indexes = lru.New[string, *textutil.Index](16, nil)

// sharedIndex returns the index over docs, building it on first sight.
func sharedIndex(docs []string) *textutil.Index {
	ix, _ := indexes.GetOrCompute(strings.Join(docs, "\x00"), func() (*textutil.Index, error) {
		return textutil.NewIndex(docs), nil
	})
	return ix
}

// rank orders scores, built in registration order, extractable first and
// then by descending similarity; the stable sort keeps registration order
// among ties.
func rank(scores []Score) {
	sort.SliceStable(scores, func(i, j int) bool {
		if scores[i].Extractable != scores[j].Extractable {
			return scores[i].Extractable
		}
		return scores[i].Similarity > scores[j].Similarity
	})
}

// Best returns the top routing candidate, or nil when the toolbox is empty
// or nothing clears the similarity floor.
func (tb *Toolbox) Best(utterance string, floor float64) *Score {
	scores := tb.Route(utterance)
	if len(scores) == 0 {
		return nil
	}
	top := scores[0]
	if !top.Extractable && top.Similarity < floor {
		return nil
	}
	return &top
}

// Describe renders the toolbox as a help listing.
func (tb *Toolbox) Describe() string {
	var b strings.Builder
	for _, name := range tb.order {
		t := tb.tools[name]
		fmt.Fprintf(&b, "%s — %s\n", name, firstSentence(t.Doc))
	}
	return b.String()
}

func firstSentence(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '.'); i > 0 {
		return s[:i+1]
	}
	return s
}
