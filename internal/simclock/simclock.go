// Package simclock provides a virtual clock abstraction so that the
// simulated LLM substrate can model wall-clock latency (the paper reports a
// 240 s pipeline runtime) without tests and benchmarks actually sleeping.
//
// Two implementations are provided: Real, which delegates to the time
// package, and Sim, which advances instantly and records total simulated
// elapsed time. Execution statistics in internal/exec report the simulated
// duration, reproducing the shape of the paper's runtime numbers.
package simclock

import (
	"sync"
	"time"
)

// Clock is the minimal clock surface used by the execution engine and the
// simulated LLM service.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// Sleep advances the clock by d. A simulated clock returns immediately.
	Sleep(d time.Duration)
}

// Real is a Clock backed by the time package.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// Sim is a virtual clock. Sleep advances the virtual time without blocking.
// It is safe for concurrent use: parallel executors from internal/exec may
// advance it from many goroutines. In that case the total advances by the
// sum of sleeps, which models sequential LLM latency; stages that overlap
// each sleep on their own Tally instead.
type Sim struct {
	mu  sync.Mutex
	now time.Time
}

// NewSim returns a virtual clock starting at a fixed epoch so that runs are
// reproducible.
func NewSim() *Sim {
	return &Sim{now: time.Date(2025, 6, 22, 9, 0, 0, 0, time.UTC)}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Sleep implements Clock by advancing virtual time.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	s.now = s.now.Add(d)
	s.mu.Unlock()
}

// Elapsed returns the virtual time elapsed since the epoch.
func (s *Sim) Elapsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now.Sub(time.Date(2025, 6, 22, 9, 0, 0, 0, time.UTC))
}

// Tally is a Clock private to one pipeline stage: Sleep accumulates into a
// stage-local total instead of advancing any shared clock. The pipelined
// executor (internal/exec) gives every operator stage its own Tally, then
// models the run's wall-clock from the stage totals (overlapping stages
// contribute their maximum, not their sum). It is safe for concurrent use.
type Tally struct {
	mu    sync.Mutex
	base  time.Time
	total time.Duration
}

// NewTally returns a Tally starting at base (typically the shared clock's
// current time when the pipeline starts).
func NewTally(base time.Time) *Tally { return &Tally{base: base} }

// Now implements Clock: base time plus the accumulated total.
func (t *Tally) Now() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.base.Add(t.total)
}

// Sleep implements Clock by accumulating d into the stage total.
func (t *Tally) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t.mu.Lock()
	t.total += d
	t.mu.Unlock()
}

// Total returns the accumulated stage time.
func (t *Tally) Total() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}
