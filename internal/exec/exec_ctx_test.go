package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/optimizer"
	"repro/internal/workloads"
)

// TestSequentialContextDeadline: an already-expired deadline aborts the
// one-batch run before any operator runs, surfacing the context error.
func TestSequentialContextDeadline(t *testing.T) {
	e, err := NewExecutor(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, err = e.Execute(ctx, demoChain(t), optimizer.MaxQuality{}, 0, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestPipelinedContextCancelMidRun: canceling the caller's context while
// the engine is mid-flight tears down every stage and returns
// the cancellation, without deadlock or goroutine leak (the -race run
// would flag unsynchronized teardown).
func TestPipelinedContextCancelMidRun(t *testing.T) {
	phys, err := workloads.StreamPlan(60)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fired := make(chan struct{})
	e, err := NewExecutor(Config{Parallelism: 4, OnProgress: func(p Progress) {
		// Cancel as soon as the first batch completes anywhere.
		select {
		case <-fired:
		default:
			close(fired)
			cancel()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.RunPipelined(ctx, phys)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled pipelined run did not return")
	}
}

// TestConcurrentExecuteAccounting: many concurrent Execute calls over one
// Executor each report their own cost and elapsed time — per-run totals
// must match a reference single-threaded run, not absorb neighbors' work.
func TestConcurrentExecuteAccounting(t *testing.T) {
	chain, err := workloads.StreamChain(20)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewExecutor(Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Execute(context.Background(), chain, optimizer.MinCost{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	e, err := NewExecutor(Config{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	results := make([]*Result, n)
	errs := make([]error, n)
	donech := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			results[i], errs[i] = e.Execute(context.Background(), chain, optimizer.MinCost{}, 0, 0)
			donech <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-donech
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		res := results[i]
		if len(res.Records) != len(want.Records) {
			t.Errorf("run %d: %d records, want %d", i, len(res.Records), len(want.Records))
		}
		if diff := res.CostUSD - want.CostUSD; diff < -1e-9 || diff > 1e-9 {
			t.Errorf("run %d: cost $%.6f, want $%.6f (per-run accounting leaked)", i, res.CostUSD, want.CostUSD)
		}
		if res.Elapsed != want.Elapsed {
			t.Errorf("run %d: elapsed %v, want %v", i, res.Elapsed, want.Elapsed)
		}
	}
	// The shared service still sees the cumulative picture.
	if total := e.Service().TotalCost(); total < want.CostUSD*float64(n)-1e-9 {
		t.Errorf("service total $%.6f, want >= %d x $%.6f", total, n, want.CostUSD)
	}
}

// TestExecutePlanContextMatchesExecute: running a previously chosen plan
// directly (the serving layer's plan-cache hit path) yields the same
// records as the optimize-and-run path.
func TestExecutePlanContextMatchesExecute(t *testing.T) {
	chain, err := workloads.StreamChain(12)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, err := e.Execute(context.Background(), chain, optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := e.ExecutePlan(context.Background(), &Optimized{Plan: full.Plan}, "replayed")
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Records) != len(full.Records) {
		t.Fatalf("replay %d records, want %d", len(replay.Records), len(full.Records))
	}
	for i := range replay.Records {
		if replay.Records[i].Text() != full.Records[i].Text() {
			t.Fatalf("replay record %d differs", i)
		}
	}
	if replay.Policy != "replayed" || replay.Plan != full.Plan {
		t.Error("replay metadata not carried")
	}
	if replay.Trace.Attrs["plan_cached"] != "true" || full.Trace.Attrs["plan_cached"] != "" {
		t.Errorf("plan_cached attrs: replay %q, full %q", replay.Trace.Attrs["plan_cached"], full.Trace.Attrs["plan_cached"])
	}
	for _, opt := range []*Optimized{nil, {}} {
		if _, err := e.ExecutePlan(context.Background(), opt, "x"); err == nil {
			t.Errorf("ExecutePlan(%v) accepted a missing plan", opt)
		}
	}
}
