// Package trace is the engine's structured query-trace model: a tree of
// spans recording where a query's simulated time, dollar cost, LLM calls,
// and records went — per plan stage, per scan partition, and (for
// clustered queries) per worker. The exec engines assemble a trace for
// every run from the same per-operator statistics the paper's Figure 5
// panel reports; the cluster coordinator embeds worker-side traces under
// its partition spans; the serving layer attaches traces to jobs and
// retains a bounded ring of recent ones. Spans carry the observed
// per-stage selectivity/cost/time estimates that adaptive re-optimization
// (ROADMAP item 3) consumes as its input signal.
//
// All durations are simulated-clock (internal/simclock), so traces are
// deterministic for a fixed corpus, plan, and code revision.
package trace

import (
	"encoding/json"
	"fmt"
	"sync"
)

// SchemaVersion is the trace artifact format version (the top-level
// object pzrun -trace writes and /v1/jobs/{id}/trace serves).
const SchemaVersion = 1

// Span kinds.
const (
	// KindQuery is a trace root: one optimized query execution.
	KindQuery = "query"
	// KindOptimize covers plan enumeration and sentinel calibration.
	KindOptimize = "optimize"
	// KindStage is one physical operator stage of the executed plan.
	KindStage = "stage"
	// KindPartition is one partition of a partitioned scan prefix — an
	// in-process range reader, or one scattered cluster partition.
	KindPartition = "partition"
	// KindTier is one tier of a cascade-filter stage (prefilter, verify,
	// resolve), nested under its stage span. Tier spans reconcile with
	// their parent: records entering the stage enter the first tier, each
	// tier's pass-through feeds the next, and the stage's cost is the sum
	// of its tiers'.
	KindTier = "tier"
	// KindWorker is a worker-side execution embedded under a cluster
	// partition span (Worker names the executing daemon).
	KindWorker = "worker"
	// KindReopt is a mid-flight (or post-run) re-optimization check: its
	// attrs carry the observed divergence, the trigger threshold, and the
	// old/new plan displays when a hot swap happened.
	KindReopt = "reopt"
	// KindScatter is the coordinator's scatter/gather phase.
	KindScatter = "scatter"
	// KindSuffix is the coordinator-local run of a clustered plan's
	// operators after the scattered prefix.
	KindSuffix = "suffix"
)

// Span is one node of a query trace.
type Span struct {
	// Kind classifies the span (Kind* constants).
	Kind string `json:"kind"`
	// Name is the human label: the engine for query spans, the op ID for
	// stage spans, "partition 3" for partition spans.
	Name string `json:"name"`
	// OpID and OpIndex locate a stage span in the physical plan.
	OpID    string `json:"op_id,omitempty"`
	OpIndex int    `json:"op_index,omitempty"`
	// Partition is the partition ordinal of partition spans (nil
	// elsewhere; 0 is a valid ordinal, hence the pointer).
	Partition *int `json:"partition,omitempty"`
	// Worker names the cluster worker that executed a partition
	// ("local" for coordinator-side fallback execution).
	Worker string `json:"worker,omitempty"`
	// RecordsIn and RecordsOut are the record counts entering and
	// leaving the span.
	RecordsIn  int `json:"records_in"`
	RecordsOut int `json:"records_out"`
	// Selectivity is the observed RecordsOut/RecordsIn (0 when nothing
	// entered) — the realized per-stage estimate a mid-flight
	// re-optimizer compares against the plan's prior.
	Selectivity float64 `json:"selectivity,omitempty"`
	// SimMS is the span's simulated duration in milliseconds.
	SimMS int64 `json:"sim_ms"`
	// CostUSD is the span's simulated LLM spend.
	CostUSD float64 `json:"cost_usd"`
	// LLMCalls, InputTokens, OutputTokens, and CacheHits account LLM
	// work (CacheHits counts calls answered by the response cache).
	LLMCalls     int `json:"llm_calls,omitempty"`
	InputTokens  int `json:"input_tokens,omitempty"`
	OutputTokens int `json:"output_tokens,omitempty"`
	CacheHits    int `json:"cache_hits,omitempty"`
	// Attrs carries free-form annotations (policy, plan, candidates).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Children are the nested spans (stages under a query, partitions
	// under a stage, a worker run under a cluster partition).
	Children []*Span `json:"children,omitempty"`
}

// Add appends a child span and returns the parent for chaining.
func (s *Span) Add(children ...*Span) *Span {
	s.Children = append(s.Children, children...)
	return s
}

// SetAttr annotates the span, allocating the map on first use.
func (s *Span) SetAttr(key, value string) {
	if s.Attrs == nil {
		s.Attrs = map[string]string{}
	}
	s.Attrs[key] = value
}

// Ordinal returns a pointer to p, the form Span.Partition stores.
func Ordinal(p int) *int { return &p }

// Selectivity is the observed out/in ratio (0 when in is 0).
func Selectivity(in, out int) float64 {
	if in <= 0 {
		return 0
	}
	return float64(out) / float64(in)
}

// FindAll walks the tree depth-first and returns every span of the given
// kind, in visit order.
func (s *Span) FindAll(kind string) []*Span {
	if s == nil {
		return nil
	}
	var out []*Span
	if s.Kind == kind {
		out = append(out, s)
	}
	for _, c := range s.Children {
		out = append(out, c.FindAll(kind)...)
	}
	return out
}

// Stages returns the trace's stage spans ordered by plan position — the
// flat Figure-5 view of a span tree.
func (s *Span) Stages() []*Span { return s.FindAll(KindStage) }

// String renders a compact one-line summary for logs.
func (s *Span) String() string {
	return fmt.Sprintf("%s %s: %d->%d records, %d ms sim, $%.4f",
		s.Kind, s.Name, s.RecordsIn, s.RecordsOut, s.SimMS, s.CostUSD)
}

// Document is the versioned wire form of one trace (what pzrun -trace
// writes and /v1/jobs/{id}/trace serves).
type Document struct {
	SchemaVersion int    `json:"schema_version"`
	JobID         string `json:"job_id,omitempty"`
	Tenant        string `json:"tenant,omitempty"`
	Trace         *Span  `json:"trace"`
}

// NewDocument wraps a root span in the versioned wire form.
func NewDocument(root *Span) *Document {
	return &Document{SchemaVersion: SchemaVersion, Trace: root}
}

// MarshalIndent renders the document as indented JSON with a trailing
// newline, the form written to trace artifact files.
func (d *Document) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return append(data, '\n'), nil
}

// Ring is a bounded, concurrency-safe ring buffer retaining the most
// recent capacity items — the retention policy behind the serving
// layer's recent-trace buffer and slow-query log.
type Ring[T any] struct {
	mu   sync.Mutex
	cap  int
	buf  []T
	next int
	full bool
}

// NewRing returns an empty ring retaining up to capacity items
// (capacity < 1 is raised to 1).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{cap: capacity, buf: make([]T, capacity)}
}

// Push appends an item, evicting the oldest when full.
func (r *Ring[T]) Push(v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % r.cap
	if r.next == 0 {
		r.full = true
	}
}

// Len reports how many items the ring currently holds.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return r.cap
	}
	return r.next
}

// Items returns the retained items oldest-first.
func (r *Ring[T]) Items() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]T, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]T, 0, r.cap)
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}
