package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"encoding/json"
	"repro/internal/corpus"
	"repro/internal/dataset"

	"repro/internal/serve"
	"repro/internal/trace"
	"repro/pz"
)

func writeSpec(t *testing.T, spec string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(p, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func demoCorpusDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	docs := corpus.GenerateBiomed(corpus.PaperDemoBiomed())
	if _, err := dataset.MaterializeCorpus("papers", dir, docs); err != nil {
		t.Fatal(err)
	}
	return dir
}

// baseOptions mirrors the test defaults the old positional run() calls
// used: small display, modest parallelism, no sampling.
func baseOptions(policy string) options {
	return options{policy: policy, maxRecords: 3, engine: pz.Config{Parallelism: 2}}
}

func TestRunDemoSpec(t *testing.T) {
	dir := demoCorpusDir(t)
	spec := `{
	  "dataset": {"name": "papers", "dir": "` + dir + `"},
	  "ops": [
	    {"op": "filter", "predicate": "The papers are about colorectal cancer"},
	    {"op": "convert", "schema": "ClinicalData",
	     "doc": "Datasets referenced by papers.",
	     "fields": ["name", "description", "url"],
	     "descriptions": ["Dataset name", "Short description", "Public URL"],
	     "cardinality": "one_to_many"},
	    {"op": "sort", "field": "name"},
	    {"op": "limit", "n": 10}
	  ]
	}`
	opts := baseOptions("max-quality")
	opts.engine.StreamBatchSize = 3
	if err := run(writeSpec(t, spec), opts); err != nil {
		t.Fatal(err)
	}
}

func TestRunSpecAllRelationalOps(t *testing.T) {
	dir := t.TempDir()
	docs := corpus.GenerateRealEstate(corpus.RealEstateConfig{NumListings: 20, ModernRate: 0.5, Seed: 3})
	if _, err := dataset.MaterializeCorpus("listings", dir, docs); err != nil {
		t.Fatal(err)
	}
	spec := `{
	  "dataset": {"name": "listings", "dir": "` + dir + `"},
	  "ops": [
	    {"op": "retrieve", "query": "modern kitchen", "k": 10},
	    {"op": "convert", "schema": "Listing", "doc": "A listing.",
	     "fields": ["neighborhood", "price:float"],
	     "descriptions": ["The neighborhood", "The price in dollars"]},
	    {"op": "groupby", "keys": ["neighborhood"], "func": "avg", "field": "price"},
	    {"op": "sort", "field": "value", "descending": true},
	    {"op": "distinct", "fields": ["neighborhood"]},
	    {"op": "project", "fields": ["neighborhood", "value"]},
	    {"op": "limit", "n": 3}
	  ]
	}`
	opts := baseOptions("min-cost")
	opts.maxRecords = 5
	if err := run(writeSpec(t, spec), opts); err != nil {
		t.Fatal(err)
	}
}

func TestRunSpecErrors(t *testing.T) {
	dir := demoCorpusDir(t)
	cases := map[string]string{
		"bad json":    `{not json`,
		"missing dir": `{"dataset": {"name": "x"}, "ops": []}`,
		"unknown op":  `{"dataset": {"name": "x", "dir": "` + dir + `"}, "ops": [{"op": "frobnicate"}]}`,
		"bad agg":     `{"dataset": {"name": "x", "dir": "` + dir + `"}, "ops": [{"op": "aggregate", "func": "median"}]}`,
	}
	for name, spec := range cases {
		if err := run(writeSpec(t, spec), baseOptions("max-quality")); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := run("/nonexistent/spec.json", baseOptions("max-quality")); err == nil {
		t.Error("missing spec file accepted")
	}
	if err := run(writeSpec(t, `{"dataset": {"name": "p", "dir": "`+dir+`"}, "ops": []}`), baseOptions("bogus-policy")); err == nil {
		t.Error("bad policy accepted")
	}
}

// TestRunSpecPolicyWinsOverFlag: a policy embedded in the spec file is
// used even when the -policy flag carries a different (here invalid)
// value, so specs behave identically locally and via pzserve.
func TestRunSpecPolicyWinsOverFlag(t *testing.T) {
	dir := demoCorpusDir(t)
	spec := `{"dataset": {"name": "papers", "dir": "` + dir + `"},
	  "ops": [{"op": "limit", "n": 2}], "policy": "min-cost"}`
	if err := run(writeSpec(t, spec), baseOptions("bogus-policy")); err != nil {
		t.Fatalf("spec policy should override the flag: %v", err)
	}
}

// TestRunTimeoutAborts: a -timeout too short for the pipeline aborts the
// run cleanly with the context's deadline error (main turns any run()
// error into a non-zero exit).
func TestRunTimeoutAborts(t *testing.T) {
	dir := demoCorpusDir(t)
	spec := `{
	  "dataset": {"name": "papers", "dir": "` + dir + `"},
	  "ops": [
	    {"op": "filter", "predicate": "The papers are about colorectal cancer"},
	    {"op": "filter", "predicate": "The papers report a clinical trial"}
	  ]
	}`
	opts := baseOptions("max-quality")
	opts.timeout = time.Nanosecond
	err := run(writeSpec(t, spec), opts)
	if err == nil {
		t.Fatal("run with 1ns timeout succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout error = %v, want context.DeadlineExceeded", err)
	}
}

// serveForTest starts an in-process pzserve with the demo corpus
// registered under "papers" and returns its base URL.
func serveForTest(t *testing.T, onStart func(context.Context, *serve.Job)) string {
	t.Helper()
	return serveWith(t, pz.Config{Parallelism: 2}, onStart)
}

// serveWith is serveForTest over a context made from engine, as pzserve
// makes one from its engine flags.
func serveWith(t *testing.T, engine pz.Config, onStart func(context.Context, *serve.Job)) string {
	t.Helper()
	pzctx, err := pz.NewContext(engine)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pzctx.RegisterDir("papers", demoCorpusDir(t)); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Context: pzctx, OnJobStart: onStart})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts.URL
}

// TestRunServerMode: -server submits the spec to a pzserve daemon, which
// resolves the dataset by name (no dir in the spec) and returns the result.
func TestRunServerMode(t *testing.T) {
	url := serveForTest(t, nil)
	spec := `{
	  "dataset": {"name": "papers"},
	  "ops": [{"op": "filter", "predicate": "The papers are about colorectal cancer"}]
	}`
	opts := baseOptions("min-cost")
	opts.server = url
	opts.tenant = "cli"
	if err := run(writeSpec(t, spec), opts); err != nil {
		t.Fatal(err)
	}
}

// TestRunServerModeErrors: server-side rejections (unknown dataset) and a
// client -timeout expiring mid-run both surface as errors.
func TestRunServerModeErrors(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	url := serveForTest(t, func(ctx context.Context, _ *serve.Job) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
	})
	spec := `{"dataset": {"name": "nope"}, "ops": []}`
	opts := baseOptions("min-cost")
	opts.server = url
	if err := run(writeSpec(t, spec), opts); err == nil {
		t.Error("unknown dataset accepted by server mode")
	}

	spec = `{"dataset": {"name": "papers"},
	  "ops": [{"op": "filter", "predicate": "The papers are about colorectal cancer"}]}`
	opts.timeout = 50 * time.Millisecond
	if err := run(writeSpec(t, spec), opts); err == nil {
		t.Error("remote run outlived the client timeout")
	}
}

// TestRunTraceArtifact: -trace writes a versioned span-tree document in
// both local and server mode (where it is fetched from the daemon after
// the run).
func TestRunTraceArtifact(t *testing.T) {
	dir := demoCorpusDir(t)
	spec := `{
	  "dataset": {"name": "papers", "dir": "` + dir + `"},
	  "ops": [{"op": "filter", "predicate": "The papers are about colorectal cancer"}]
	}`
	specPath := writeSpec(t, spec)

	checkArtifact := func(path string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("trace artifact not written: %v", err)
		}
		var doc trace.Document
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("trace artifact is not a document: %v", err)
		}
		if doc.SchemaVersion != trace.SchemaVersion {
			t.Errorf("artifact schema v%d, want v%d", doc.SchemaVersion, trace.SchemaVersion)
		}
		if doc.Trace == nil || doc.Trace.Kind != trace.KindQuery || len(doc.Trace.Stages()) == 0 {
			t.Errorf("artifact trace = %+v, want a query root with stages", doc.Trace)
		}
	}

	opts := baseOptions("max-quality")
	opts.tracePath = filepath.Join(t.TempDir(), "local.json")
	if err := run(specPath, opts); err != nil {
		t.Fatal(err)
	}
	checkArtifact(opts.tracePath)

	remoteSpec := `{
	  "dataset": {"name": "papers"},
	  "ops": [{"op": "filter", "predicate": "The papers are about colorectal cancer"}]
	}`
	opts = baseOptions("min-cost")
	opts.server = serveForTest(t, nil)
	opts.tracePath = filepath.Join(t.TempDir(), "remote.json")
	if err := run(writeSpec(t, remoteSpec), opts); err != nil {
		t.Fatal(err)
	}
	checkArtifact(opts.tracePath)
}

// TestLocalPlansAsServe: a spec's partition fan-out overrides the
// -partitions flag for its pipeline and leaves the flag the context's
// default, in pzrun as in pzserve. With -parallelism 1 -partitions 4 and
// a spec asking for one reader, both resolve the same optimizer options
// and run the query overlapping (trace root "pipelined").
func TestLocalPlansAsServe(t *testing.T) {
	engine := pz.Config{Parallelism: 1, Partitions: 4}
	spec := `{
	  "dataset": {"name": "papers", "dir": "` + demoCorpusDir(t) + `"},
	  "partitions": 1,
	  "ops": [{"op": "filter", "predicate": "The papers are about colorectal cancer"}]
	}`
	sp, err := serve.ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	opts := baseOptions("max-quality")
	opts.engine = engine
	local, lds, err := localPipeline(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	// pzserve builds every query over the one context its flags make.
	served, err := pz.NewContext(engine)
	if err != nil {
		t.Fatal(err)
	}
	sds, err := sp.Build(served)
	if err != nil {
		t.Fatal(err)
	}
	lo, so := local.OptimizerOptionsFor(lds), served.OptimizerOptionsFor(sds)
	if !reflect.DeepEqual(lo, so) || !lo.Pipelined || lo.Partitions != 1 {
		t.Errorf("pzrun resolves %+v, pzserve %+v; want equal, pipelined, one partition", lo, so)
	}

	root := func(path string) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc trace.Document
		if err := json.Unmarshal(data, &doc); err != nil || doc.Trace == nil {
			t.Fatalf("trace %s: %v", path, err)
		}
		return doc.Trace.Name
	}
	specPath := writeSpec(t, spec)
	opts.tracePath = filepath.Join(t.TempDir(), "local.json")
	if err := run(specPath, opts); err != nil {
		t.Fatal(err)
	}
	localRoot := root(opts.tracePath)
	opts.server = serveWith(t, engine, nil)
	opts.tracePath = filepath.Join(t.TempDir(), "remote.json")
	if err := run(specPath, opts); err != nil {
		t.Fatal(err)
	}
	if remoteRoot := root(opts.tracePath); localRoot != "pipelined" || remoteRoot != "pipelined" {
		t.Errorf("trace roots: pzrun %q, pzserve %q; want both pipelined", localRoot, remoteRoot)
	}
}
