package exec

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/optimizer"
)

// TestPermanentFailureSurfacesError: with a 100% failure rate, retries
// exhaust and the pipeline reports which operator failed.
func TestPermanentFailureSurfacesError(t *testing.T) {
	e, err := newExecutor(Config{}, faults{failureRate: 1.0, maxAttempts: 3, backoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Execute(context.Background(), demoChain(t), optimizer.MaxQuality{}, 0, 0)
	if err == nil {
		t.Fatal("pipeline succeeded despite 100% failure rate")
	}
	if !strings.Contains(err.Error(), "llm-filter") {
		t.Errorf("error should name the failing operator: %v", err)
	}
	if !strings.Contains(err.Error(), "3/3") {
		t.Errorf("error should show retry exhaustion: %v", err)
	}
}

// TestParallelismDoesNotChangeOutputs: the same pipeline run with
// parallelism 1 and 8 yields identical record sets (order included: the
// parallel executor preserves input order).
func TestParallelismDoesNotChangeOutputs(t *testing.T) {
	collect := func(par int) []string {
		e, err := NewExecutor(Config{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(context.Background(), demoChain(t), optimizer.MaxQuality{}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var urls []string
		for _, r := range res.Records {
			urls = append(urls, r.GetString("url"))
		}
		return urls
	}
	a, b := collect(1), collect(8)
	if len(a) != len(b) {
		t.Fatalf("different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestBackoffChargedToRuntime: retried calls accumulate backoff in the
// simulated elapsed time.
func TestBackoffChargedToRuntime(t *testing.T) {
	clean, err := NewExecutor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := clean.Execute(context.Background(), demoChain(t), optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	flaky, err := newExecutor(Config{}, faults{failureRate: 0.3, maxAttempts: 10, backoff: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	flakyRes, err := flaky.Execute(context.Background(), demoChain(t), optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if flakyRes.Elapsed <= cleanRes.Elapsed {
		t.Errorf("flaky run %v not slower than clean run %v", flakyRes.Elapsed, cleanRes.Elapsed)
	}
	if len(flakyRes.Records) != len(cleanRes.Records) {
		t.Errorf("failures changed outputs: %d vs %d", len(flakyRes.Records), len(cleanRes.Records))
	}
}

// TestUsageTracksFailures: injected failures are visible in per-model
// usage.
func TestUsageTracksFailures(t *testing.T) {
	e, err := newExecutor(Config{}, faults{failureRate: 0.3, maxAttempts: 10, backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), demoChain(t), optimizer.MinCost{}, 0, 0); err != nil {
		t.Fatal(err)
	}
	var failures int
	for _, u := range e.Service().Usage() {
		failures += u.Failures
	}
	if failures == 0 {
		t.Error("no failures recorded at 30% rate")
	}
}
