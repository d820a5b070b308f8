package exec

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/internal/record"
	"repro/internal/workloads"
)

// streamSource builds the shared streaming workload's source.
func streamSource(t testing.TB, n int) dataset.Source {
	t.Helper()
	src, err := workloads.StreamSource(n)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// renderAll serializes records field-by-field (record IDs are excluded:
// they reflect process-global allocation order, not content).
func renderAll(recs []*record.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		var b strings.Builder
		for _, f := range r.Schema().FieldNames() {
			fmt.Fprintf(&b, "%s=%q;", f, r.GetString(f))
		}
		out[i] = b.String()
	}
	return out
}

// assertSameStats compares the engine-invariant per-operator totals (batch
// sizes and LLM accounting; modeled time legitimately differs).
func assertSameStats(t *testing.T, seq, pipe *ops.RunStats) {
	t.Helper()
	a, b := seq.Ops(), pipe.Ops()
	if len(a) != len(b) {
		t.Fatalf("operator count differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].OpID != b[i].OpID || a[i].InRecords != b[i].InRecords ||
			a[i].OutRecords != b[i].OutRecords || a[i].LLMCalls != b[i].LLMCalls ||
			a[i].InputTokens != b[i].InputTokens || a[i].OutputTokens != b[i].OutputTokens {
			t.Errorf("op %d stats differ:\nsequential: %+v\npipelined:  %+v", i, a[i], b[i])
		}
		// Per-call dollar amounts sum in worker-completion order and float
		// addition is not associative, so cost gets an epsilon.
		if d := a[i].CostUSD - b[i].CostUSD; d > 1e-9 || d < -1e-9 {
			t.Errorf("op %d cost differs: %v vs %v", i, a[i].CostUSD, b[i].CostUSD)
		}
	}
}

// TestPipelinedSpeedupAndIdenticalOutputs is the PR's acceptance check: on
// a 3-LLM-operator, 100-record workload at Parallelism=8 the pipelined
// run is at least 2x faster on the simulated clock than the one-batch
// run, with byte-identical output records and matching per-operator stats
// totals.
func TestPipelinedSpeedupAndIdenticalOutputs(t *testing.T) {
	phys, err := workloads.StreamPlan(100)
	if err != nil {
		t.Fatal(err)
	}

	seqExec, _ := NewExecutor(Config{Parallelism: 8})
	seq, err := seqExec.RunSequential(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	pipeExec, _ := NewExecutor(Config{Parallelism: 8})
	pipe, err := pipeExec.RunPipelined(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}

	if len(seq.Records) == 0 {
		t.Fatal("workload filtered out every record")
	}
	a, b := renderAll(seq.Records), renderAll(pipe.Records)
	if len(a) != len(b) {
		t.Fatalf("output counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\nsequential: %s\npipelined:  %s", i, a[i], b[i])
		}
	}
	assertSameStats(t, seq.Stats, pipe.Stats)
	if speedup := float64(seq.Elapsed) / float64(pipe.Elapsed); speedup < 2 {
		t.Errorf("pipelined speedup %.2fx < 2x (sequential %v, pipelined %v)",
			speedup, seq.Elapsed, pipe.Elapsed)
	}
}

// TestPipelinedOrderingDeterministic: with Parallelism > 1 and a small
// batch size, repeated pipelined runs of the demo chain (filter + OneToMany
// convert) produce the same records in the same order as the one-batch
// run.
func TestPipelinedOrderingDeterministic(t *testing.T) {
	chain := demoChain(t)
	phys, err := optimizer.ChampionPlan(chain)
	if err != nil {
		t.Fatal(err)
	}
	seqExec, _ := NewExecutor(Config{})
	seq, err := seqExec.RunSequential(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(seq.Records)
	// Parallelism 2 keeps the explicit batch size of 3 effective (batch
	// sizes are floored at Parallelism), so the 11-record corpus spreads
	// over several batches and cross-batch reassembly is exercised.
	for trial := 0; trial < 3; trial++ {
		e, _ := NewExecutor(Config{Parallelism: 2, StreamBatchSize: 3})
		res, err := e.RunPipelined(context.Background(), phys)
		if err != nil {
			t.Fatal(err)
		}
		got := renderAll(res.Records)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d records, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: record %d differs:\n%s\nvs\n%s", trial, i, got[i], want[i])
			}
		}
		assertSameStats(t, seq.Stats, res.Stats)
	}
}

// TestPipelinedBlockingOperators: a plan mixing streamable and blocking
// stages (sort, limit are barriers) still matches the one-batch run.
func TestPipelinedBlockingOperators(t *testing.T) {
	chain := append(demoChain(t),
		&ops.Sort{Field: "name", Descending: false},
		&ops.Limit{N: 4},
	)
	phys, err := optimizer.ChampionPlan(chain)
	if err != nil {
		t.Fatal(err)
	}
	seqExec, _ := NewExecutor(Config{})
	seq, err := seqExec.RunSequential(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	pipeExec, _ := NewExecutor(Config{Parallelism: 4, StreamBatchSize: 2})
	pipe, err := pipeExec.RunPipelined(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderAll(seq.Records), renderAll(pipe.Records)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("outputs differ:\nsequential:\n%s\npipelined:\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
	assertSameStats(t, seq.Stats, pipe.Stats)
}

// TestPipelineErrorCancelsInFlightWork: an error in a downstream stage
// cancels the pipeline; with bounded channels (backpressure) the upstream
// stage has processed only a handful of records when the run aborts.
func TestPipelineErrorCancelsInFlightWork(t *testing.T) {
	var counted atomic.Int64
	chain := []ops.Logical{
		&ops.Scan{Source: streamSource(t, 100)},
		&ops.Filter{UDFName: "count", UDF: func(r *record.Record) (bool, error) {
			counted.Add(1)
			return true, nil
		}},
		&ops.Filter{UDFName: "explode", UDF: func(r *record.Record) (bool, error) {
			return false, fmt.Errorf("boom")
		}},
	}
	phys, err := optimizer.ChampionPlan(chain)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewExecutor(Config{Parallelism: 2, StreamBatchSize: 1})
	_, err = e.RunPipelined(context.Background(), phys)
	if err == nil {
		t.Fatal("pipeline succeeded despite erroring operator")
	}
	if !strings.Contains(err.Error(), "operator 2") || !strings.Contains(err.Error(), "boom") {
		t.Errorf("error should name the failing operator: %v", err)
	}
	if n := counted.Load(); n >= 100 {
		t.Errorf("upstream stage processed all %d records; cancellation did not stop in-flight work", n)
	} else if n > 12 {
		t.Errorf("upstream stage processed %d records; backpressure should bound the overrun to a few batches", n)
	}
}

// TestProgressCallback: both run shapes report progress, and the final
// stage's cumulative record count equals the run's output size. A
// one-batch run reports exactly one event per operator, in plan order.
func TestProgressCallback(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"sequential", Config{Parallelism: 1}},
		{"pipelined", Config{Parallelism: 8, StreamBatchSize: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			maxRecords := map[int]int{}
			var order []int
			events := 0
			cfg := tc.cfg
			cfg.OnProgress = func(p Progress) {
				events++
				if p.Batches == 1 {
					order = append(order, p.OpIndex)
				}
				if p.Records > maxRecords[p.OpIndex] {
					maxRecords[p.OpIndex] = p.Records
				}
			}
			e, err := NewExecutor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Execute(context.Background(), demoChain(t), optimizer.MaxQuality{}, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if events == 0 {
				t.Fatal("no progress events")
			}
			if got := maxRecords[2]; got != len(res.Records) {
				t.Errorf("final stage progress reported %d records, run produced %d", got, len(res.Records))
			}
			if tc.cfg.Parallelism == 1 && (events != len(res.Plan.Ops) || !slices.IsSorted(order)) {
				t.Errorf("one-batch run: %d events, first batches in op order %v; want one per operator in plan order", events, order)
			}
		})
	}
}

// TestPipelinedBackoffChargedOnce: under failure injection the pipelined
// run gets slower (backoff lands in call latencies and therefore in the
// stage clocks, exactly once) without changing outputs.
func TestPipelinedBackoffChargedOnce(t *testing.T) {
	phys, err := optimizer.ChampionPlan(demoChain(t))
	if err != nil {
		t.Fatal(err)
	}
	cleanExec, _ := NewExecutor(Config{Parallelism: 8})
	clean, err := cleanExec.RunPipelined(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	flakyExec, err := newExecutor(Config{Parallelism: 8}, faults{failureRate: 0.3, maxAttempts: 10, backoff: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	flaky, err := flakyExec.RunPipelined(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	if flaky.Elapsed <= clean.Elapsed {
		t.Errorf("flaky pipelined run %v not slower than clean %v", flaky.Elapsed, clean.Elapsed)
	}
	if len(flaky.Records) != len(clean.Records) {
		t.Errorf("failures changed outputs: %d vs %d", len(flaky.Records), len(clean.Records))
	}
	// Elapsed is the stage-clock fold alone; the retry client's direct
	// backoff sleeps on the shared clock must not inflate it, so the
	// shared clock has advanced by at least the reported Elapsed (fold +
	// direct backoff sleeps), never less.
	if drift := flakyExec.Clock().Elapsed(); drift < flaky.Elapsed {
		t.Errorf("shared clock advanced %v, less than reported Elapsed %v", drift, flaky.Elapsed)
	}
}

// TestExecuteElapsedSingleCountsBackoff: the optimize-and-run path
// composes optimization time with the run's own elapsed instead of
// re-diffing the shared clock, so the retry client's direct backoff
// sleeps are not counted a second time.
func TestExecuteElapsedSingleCountsBackoff(t *testing.T) {
	e, err := newExecutor(Config{Parallelism: 8}, faults{failureRate: 0.3, maxAttempts: 10, backoff: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(context.Background(), demoChain(t), optimizer.MaxQuality{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	for _, u := range e.Service().Usage() {
		failures += u.Failures
	}
	if failures == 0 {
		t.Skip("no injected failures this run; nothing to assert")
	}
	if drift := e.Clock().Elapsed(); res.Elapsed >= drift {
		t.Errorf("Execute Elapsed %v should exclude the %v of direct backoff drift on the shared clock",
			res.Elapsed, drift)
	}
}

// TestPipelinedStatsRowsSurviveEmptyStages: when a stage drops every
// record, all downstream operators still execute (on empty input) and
// record their statistics rows, matching the one-batch run.
func TestPipelinedStatsRowsSurviveEmptyStages(t *testing.T) {
	chain := []ops.Logical{
		&ops.Scan{Source: streamSource(t, 20)},
		&ops.Filter{UDFName: "drop-all", UDF: func(*record.Record) (bool, error) { return false, nil }},
		&ops.Sort{Field: "filename"},
		&ops.Filter{UDFName: "keep-all", UDF: func(*record.Record) (bool, error) { return true, nil }},
	}
	phys, err := optimizer.ChampionPlan(chain)
	if err != nil {
		t.Fatal(err)
	}
	seqExec, _ := NewExecutor(Config{})
	seq, err := seqExec.RunSequential(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	pipeExec, _ := NewExecutor(Config{Parallelism: 4})
	pipe, err := pipeExec.RunPipelined(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Records) != 0 || len(pipe.Records) != 0 {
		t.Fatalf("records = %d/%d, want 0/0", len(seq.Records), len(pipe.Records))
	}
	if rows := len(pipe.Stats.Ops()); rows != len(phys) {
		t.Errorf("pipelined stats have %d rows, want %d (one per operator)", rows, len(phys))
	}
	assertSameStats(t, seq.Stats, pipe.Stats)
}

// TestRunPhysicalDispatch: Run picks the run shape by configured
// parallelism and both paths reject empty plans.
func TestRunPhysicalDispatch(t *testing.T) {
	phys, err := optimizer.ChampionPlan(demoChain(t))
	if err != nil {
		t.Fatal(err)
	}
	seqExec, _ := NewExecutor(Config{Parallelism: 1})
	pipeExec, _ := NewExecutor(Config{Parallelism: 8})
	seq, err := seqExec.Run(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := pipeExec.Run(context.Background(), phys)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Records) != len(pipe.Records) {
		t.Errorf("run shapes disagree: %d vs %d records", len(seq.Records), len(pipe.Records))
	}
	if pipe.Elapsed >= seq.Elapsed {
		t.Errorf("pipelined run %v not faster than sequential %v", pipe.Elapsed, seq.Elapsed)
	}
	if _, err := pipeExec.RunPipelined(context.Background(), nil); err == nil {
		t.Error("empty plan accepted by pipelined run")
	}
}
