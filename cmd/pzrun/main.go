// Command pzrun executes a declarative Palimpzest pipeline described in a
// JSON spec file — the expert, non-chat path into the same engine. It runs
// the pipeline in-process by default, or submits it to a running pzserve
// daemon with -server.
//
// Usage:
//
//	pzrun -spec pipeline.json [-policy max-quality] [-param 0] [-records 10]
//	      [-parallelism 4] [-partitions 0] [-batch 0] [-progress] [-sample 0]
//	      [-reopt-after 0]
//	      [-timeout 0] [-trace out.json]
//	      [-server http://host:8077] [-tenant name]
//
// The spec format is internal/serve's wire Spec — the same JSON pzserve
// accepts on /v1/query:
//
//	{
//	  "dataset": {"name": "papers", "dir": "./pdfs"},
//	  "ops": [
//	    {"op": "filter", "predicate": "The papers are about colorectal cancer"},
//	    {"op": "convert", "schema": "ClinicalData",
//	     "doc": "Datasets referenced by papers.",
//	     "fields": ["name", "description", "url"],
//	     "descriptions": ["Dataset name", "Short description", "Public URL"],
//	     "cardinality": "one_to_many"},
//	    {"op": "limit", "n": 10}
//	  ]
//	}
//
// Supported ops: filter, convert, project, limit, distinct, aggregate,
// groupby, sort, retrieve. A policy in the spec wins over the -policy
// flag, so a spec file submitted to pzserve behaves identically here.
// -timeout bounds the run (local or remote) and exits non-zero when it
// fires. -trace writes the query's span tree (per-stage and
// per-partition record counts, observed selectivity, simulated time,
// cost; see docs/howto-observability.md) to a JSON file — locally from
// the engine's own trace, remotely by fetching /v1/jobs/{id}/trace
// after the run. With -server, dataset.dir is not needed: the daemon
// resolves dataset.name against its own registry.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
	"repro/pz"
)

// options collects the flag-derived run configuration.
type options struct {
	policy     string
	param      float64
	maxRecords int
	engine     pz.Config
	progress   bool
	timeout    time.Duration
	server     string
	tenant     string
	tracePath  string
}

func main() {
	specPath := flag.String("spec", "", "pipeline spec JSON file (required)")
	var opts options
	flag.StringVar(&opts.policy, "policy", "max-quality", "optimization policy (spec-file policy wins when set)")
	flag.Float64Var(&opts.param, "param", 0, "parameter for constrained policies")
	flag.IntVar(&opts.maxRecords, "records", 10, "output records to display")
	serve.EngineFlags(flag.CommandLine, &opts.engine)
	flag.BoolVar(&opts.progress, "progress", false, "print per-stage progress events to stderr")
	flag.DurationVar(&opts.timeout, "timeout", 0, "abort the run after this long (0 = no timeout)")
	flag.StringVar(&opts.server, "server", "", "submit the spec to a running pzserve at this base URL instead of executing locally")
	flag.StringVar(&opts.tenant, "tenant", "", "tenant name sent to -server via X-PZ-Tenant")
	flag.StringVar(&opts.tracePath, "trace", "", "write the query's trace (span tree) to this JSON file")
	flag.Parse()
	if *specPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := serve.CheckEngineFlags(opts.engine); err != nil {
		fmt.Fprintln(os.Stderr, "pzrun:", err)
		os.Exit(2)
	}
	if err := run(*specPath, opts); err != nil {
		fmt.Fprintln(os.Stderr, "pzrun:", err)
		os.Exit(1)
	}
}

// run loads the spec and dispatches to local or remote execution. The
// -timeout flag becomes a context deadline either way, so a stuck run
// aborts cleanly with a non-zero exit instead of hanging.
func run(specPath string, opts options) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	sp, err := serve.ParseSpec(data)
	if err != nil {
		return fmt.Errorf("parse %s: %w", specPath, err)
	}
	if sp.Policy == "" {
		sp.Policy = opts.policy
		sp.PolicyParam = opts.param
	}
	ctx := context.Background()
	if opts.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.timeout)
		defer cancel()
	}
	if opts.server != "" {
		return runRemote(ctx, sp, opts)
	}
	return runLocal(ctx, sp, opts)
}

// runLocal optimizes and executes the pipeline in-process over a fresh
// pz.Context, honoring ctx cancellation via ExecuteContext.
func runLocal(ctx context.Context, sp *serve.Spec, opts options) error {
	pzctx, ds, err := localPipeline(sp, opts)
	if err != nil {
		return err
	}
	policy, err := sp.ParsePolicy()
	if err != nil {
		return err
	}
	fmt.Println("logical plan:")
	fmt.Println(indent(ds.Describe()))
	res, err := pzctx.ExecuteContext(ctx, ds, policy)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(res.Report(opts.maxRecords))
	if ri := res.Reopt; ri != nil {
		fmt.Printf("reopt: phase=%s divergence=%.3f threshold=%.3f triggered=%t swapped=%t\n",
			ri.Phase, ri.Divergence, ri.Threshold, ri.Triggered, ri.Swapped)
		if ri.Swapped {
			fmt.Printf("reopt: new plan %s\n", ri.NewPlan)
		}
	}
	if opts.tracePath != "" {
		if err := writeTrace(opts.tracePath, trace.NewDocument(res.Trace)); err != nil {
			return err
		}
	}
	return nil
}

// localPipeline builds the spec's pipeline over a fresh pz.Context
// configured by the engine flags, as pzserve builds a query over its
// context: the -partitions and -reopt-after flags stay the context's
// defaults, and a nonzero fan-out or window in the spec overrides them
// for this pipeline. So a spec plans the same here as on a pzserve
// started with the same flags.
func localPipeline(sp *serve.Spec, opts options) (*pz.Context, *pz.Dataset, error) {
	cfg := opts.engine
	if opts.progress {
		cfg.OnProgress = func(p pz.Progress) {
			fmt.Fprintf(os.Stderr, "pzrun: op %d %-30s batches=%d records=%d\n",
				p.OpIndex, p.OpID, p.Batches, p.Records)
		}
	}
	pzctx, err := pz.NewContext(cfg)
	if err != nil {
		return nil, nil, err
	}
	ds, err := sp.Build(pzctx)
	if err != nil {
		return nil, nil, err
	}
	return pzctx, ds, nil
}

// writeTrace renders a trace document to a file as indented JSON.
func writeTrace(path string, doc *trace.Document) error {
	data, err := doc.MarshalIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pzrun: trace written to %s\n", path)
	return nil
}

// runRemote submits the spec to a pzserve daemon synchronously
// (/v1/query?wait=1) and renders the returned result. Canceling ctx drops
// the connection, which aborts the job server-side.
func runRemote(ctx context.Context, sp *serve.Spec, opts options) error {
	// A partition fan-out or re-optimization window in the spec file
	// wins; the flag fills the gap, carried in the body.
	if sp.Partitions == 0 {
		sp.Partitions = opts.engine.Partitions
	}
	if sp.ReoptAfter == 0 {
		sp.ReoptAfter = opts.engine.ReoptAfterBatches
	}
	body, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	base := strings.TrimRight(opts.server, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := base + "/v1/query?wait=1"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if opts.tenant != "" {
		req.Header.Set("X-PZ-Tenant", opts.tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("server: %s (status %d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("server: status %d: %s", resp.StatusCode, data)
	}
	var view serve.JobView
	if err := json.Unmarshal(data, &view); err != nil {
		return fmt.Errorf("server: parse response: %w", err)
	}
	if view.Status != serve.StatusDone || view.Result == nil {
		return fmt.Errorf("server: job %s %s: %s", view.ID, view.Status, view.Error)
	}
	r := view.Result
	fmt.Printf("job %s (%s)\n", view.ID, r.Policy)
	fmt.Println("physical plan:")
	fmt.Println(indent(r.Plan))
	var records []map[string]string
	if err := json.Unmarshal(r.Records, &records); err != nil {
		return err
	}
	shown := records
	if opts.maxRecords >= 0 && len(shown) > opts.maxRecords {
		shown = shown[:opts.maxRecords]
	}
	pretty, err := json.MarshalIndent(shown, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(pretty))
	cached := ""
	if r.PlanCached {
		cached = ", plan cached"
	}
	fmt.Printf("%d records (%d shown) in %d ms simulated, $%.4f%s\n",
		r.Count, len(shown), r.ElapsedSimMS, r.CostUSD, cached)
	if opts.tracePath != "" {
		if err := fetchTrace(ctx, base, view.ID, opts.tracePath); err != nil {
			return fmt.Errorf("fetch trace for job %s: %w", view.ID, err)
		}
	}
	return nil
}

// fetchTrace retrieves a completed job's trace from the server and
// writes it to a file.
func fetchTrace(ctx context.Context, base, jobID, path string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+jobID+"/trace", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var doc trace.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("parse trace: %w", err)
	}
	return writeTrace(path, &doc)
}

func indent(s string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n")
}
