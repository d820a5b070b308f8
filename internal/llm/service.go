package llm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/lru"
	"repro/internal/record"
	"repro/internal/schema"
)

// Task discriminates what a completion request is asking the model to do.
type Task int

// Supported tasks.
const (
	// TaskFilter asks for a boolean judgement of a natural-language
	// predicate over a record.
	TaskFilter Task = iota
	// TaskExtract asks the model to populate target schema fields from a
	// record's text (the Convert operator).
	TaskExtract
)

// String implements fmt.Stringer.
func (t Task) String() string {
	switch t {
	case TaskFilter:
		return "filter"
	case TaskExtract:
		return "extract"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// Request is one completion call. It names the record and the instruction
// around it, never the rendered prompt (Render builds that): the service
// charges InputTokens and decides from the structured fields.
type Request struct {
	// Model names the catalog model to use.
	Model string
	// Task selects the prompt template and the simulated behaviour.
	Task Task
	// Record is the data record the task concerns.
	Record *record.Record
	// Predicate is the natural-language filter condition (TaskFilter).
	Predicate string
	// Desc is the Convert operator's description (TaskExtract).
	Desc string
	// Fields are the extraction targets (TaskExtract).
	Fields []schema.Field
	// OneToMany permits multiple extractions per record (TaskExtract).
	OneToMany bool
	// QualityBoost raises the effective task accuracy (capped at 1). The
	// field-at-a-time Convert strategy passes a small boost, modeling the
	// empirical advantage of asking for one field per call.
	QualityBoost float64
}

// Response is the result of a completion call.
type Response struct {
	// Model echoes the model used.
	Model string
	// Text is the raw text a real model would have produced.
	Text string
	// Decision is the boolean answer for TaskFilter.
	Decision bool
	// Confidence is the model's self-assessed probability that Decision is
	// correct, in [0,1), for TaskFilter (0 for other tasks). The simulated
	// confidence is calibrated but not perfect: answers the model got
	// wrong mostly land below 0.5, with a small overconfident tail
	// reaching just past it — which is exactly the signal a cascade's
	// verify tier thresholds on to decide what escalates to the resolve
	// model (see ops.CascadeFilterExec).
	Confidence float64
	// Extractions holds the field maps produced for TaskExtract (one map
	// per extracted entity; at most one unless OneToMany).
	Extractions []map[string]string
	// InputTokens and OutputTokens are the charged token counts.
	InputTokens  int
	OutputTokens int
	// CostUSD is the dollar cost of the call.
	CostUSD float64
	// Latency is the simulated wall-clock duration of the call. The
	// service does not advance any clock itself; callers account for
	// latency so parallel executors can overlap calls correctly.
	Latency time.Duration
	// Cached marks a response answered from a CachedClient's cache
	// rather than the (simulated) model, so per-op stats and traces can
	// account cache effectiveness.
	Cached bool
}

// Usage accumulates per-model accounting.
type Usage struct {
	Calls        int
	InputTokens  int
	OutputTokens int
	CostUSD      float64
	Latency      time.Duration
	Failures     int
}

// Service is the simulated LLM provider. It is safe for concurrent use.
type Service struct {
	mu       sync.Mutex
	usage    map[string]*Usage
	calls    uint64
	failRate float64
	// embeds maps the FNV-1a hash of a text to the text's embedding
	// vector; a record's Digest is that hash of its text. Each entry is
	// counted as its vector and its 8-byte key, and keeps no text alive.
	embeds *lru.Cache[uint64, []float64]
	terms  *termsMemo
}

// NewService returns a fresh provider with no usage.
func NewService() *Service {
	return &Service{
		usage:  map[string]*Usage{},
		embeds: lru.New(memoBytes, func(uint64, []float64) int { return EmbedDim*8 + 8 }),
		terms:  lru.New(memoBytes, termsSize),
	}
}

// WithFailureRate configures deterministic transient-failure injection:
// approximately rate of calls fail with a *TransientError before any work
// is charged. Returns the service for chaining.
func (s *Service) WithFailureRate(rate float64) *Service {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failRate = rate
	return s
}

// TransientError models a retryable provider failure (rate limit, 529).
type TransientError struct{ Msg string }

// Error implements error.
func (e *TransientError) Error() string { return "llm: transient: " + e.Msg }

// IsTransient reports whether err is a retryable provider failure.
func IsTransient(err error) bool {
	_, ok := err.(*TransientError)
	return ok
}

// Complete executes one completion request.
func (s *Service) Complete(req Request) (*Response, error) {
	card, err := Card(req.Model)
	if err != nil {
		return nil, err
	}
	if card.Embedding {
		return nil, fmt.Errorf("llm: %s is an embedding model", card.Name)
	}
	if req.Record == nil {
		return nil, fmt.Errorf("llm: request without record")
	}
	inTok := req.InputTokens()
	if inTok > card.ContextWindow {
		return nil, fmt.Errorf("llm: prompt of %d tokens exceeds %s context window (%d)",
			inTok, card.Name, card.ContextWindow)
	}

	// Deterministic failure injection, charged as a failed call.
	s.mu.Lock()
	s.calls++
	call := s.calls
	rate := s.failRate
	s.mu.Unlock()
	if rate > 0 {
		ord := strconv.FormatUint(call, 10)
		if unit("fail", ord) < rate {
			s.account(card.Name, Usage{Failures: 1})
			return nil, &TransientError{Msg: "simulated rate limit on call " + ord}
		}
	}

	resp := &Response{Model: card.Name, InputTokens: inTok}
	switch req.Task {
	case TaskFilter:
		decide(s.terms, card, req, resp)
	case TaskExtract:
		extract(s.terms, card, req, resp)
	default:
		return nil, fmt.Errorf("llm: unknown task %v", req.Task)
	}
	resp.OutputTokens = CountTokens(resp.Text)
	if resp.OutputTokens == 0 {
		resp.OutputTokens = 1
	}
	resp.CostUSD = card.Cost(resp.InputTokens, resp.OutputTokens)
	resp.Latency = card.Latency(resp.InputTokens, resp.OutputTokens)

	s.account(card.Name, Usage{
		Calls:        1,
		InputTokens:  resp.InputTokens,
		OutputTokens: resp.OutputTokens,
		CostUSD:      resp.CostUSD,
		Latency:      resp.Latency,
	})
	return resp, nil
}

// account adds d to model's usage.
func (s *Service) account(model string, d Usage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.usage[model]
	if u == nil {
		u = &Usage{}
		s.usage[model] = u
	}
	u.Calls += d.Calls
	u.InputTokens += d.InputTokens
	u.OutputTokens += d.OutputTokens
	u.CostUSD += d.CostUSD
	u.Latency += d.Latency
	u.Failures += d.Failures
}

// Usage returns a snapshot of per-model usage.
func (s *Service) Usage() map[string]Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Usage, len(s.usage))
	for k, v := range s.usage {
		out[k] = *v
	}
	return out
}

// TotalCost returns the cumulative dollar cost across models.
func (s *Service) TotalCost() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var c float64
	for _, u := range s.usage {
		c += u.CostUSD
	}
	return c
}

// TotalCalls returns the cumulative successful call count.
func (s *Service) TotalCalls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, u := range s.usage {
		n += u.Calls
	}
	return n
}

// UsageReport renders per-model usage as aligned text lines, best for chat
// output and the experiment harness.
func (s *Service) UsageReport() string {
	usage := s.Usage()
	models := make([]string, 0, len(usage))
	for m := range usage {
		models = append(models, m)
	}
	sort.Strings(models)
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %10s %10s %10s %12s\n",
		"model", "calls", "in_tok", "out_tok", "cost_usd", "latency")
	for _, m := range models {
		u := usage[m]
		fmt.Fprintf(&b, "%-14s %8d %10d %10d %10.4f %12s\n",
			m, u.Calls, u.InputTokens, u.OutputTokens, u.CostUSD, u.Latency.Round(time.Millisecond))
	}
	return b.String()
}

// unit maps the noise key made of parts deterministically to [0,1). The
// key is the parts joined by "|", hashed with FNV-1a as it is fed, so
// unit("a", "b") == unit("a|b") and no key string is built.
func unit(parts ...string) float64 {
	h := uint64(fnvOffset64)
	for i, p := range parts {
		if i > 0 {
			h = fnvAdd(h, "|")
		}
		h = fnvAdd(h, p)
	}
	return float64(h%1_000_000) / 1_000_000
}

// hexDigest renders r's content digest in lowercase hex into buf, the form
// noise keys carry it in. The result aliases buf.
func hexDigest(r *record.Record, buf *[16]byte) []byte {
	return strconv.AppendUint(buf[:0], r.Digest(), 16)
}
