package bench

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/workloads"
	"repro/pz"
)

// miniTrack is a small valid grid over the Go support domain.
const miniTrack = `{
  "name": "mini",
  "description": "unit-test grid",
  "datasets": [
    {"name": "support", "domain": "support", "docs": 40, "seed": 5,
     "ops": [{"op": "filter", "predicate": "The ticket is urgent and needs immediate attention"}]}
  ],
  "parallelism": [1, 2],
  "partitions": [1, 2],
  "policies": ["max-quality"]
}`

func parseMini(t *testing.T) *Track {
	t.Helper()
	tr, err := ParseTrack([]byte(miniTrack))
	if err != nil {
		t.Fatalf("parse mini track: %v", err)
	}
	return tr
}

func TestTrackCells(t *testing.T) {
	if got := parseMini(t).Cells(); got != 4 {
		t.Fatalf("mini grid has %d cells, want 4", got)
	}
}

func TestParseTrackRejects(t *testing.T) {
	mut := func(old, new string) string { return strings.Replace(miniTrack, old, new, 1) }
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"empty", ``, "EOF"},
		{"oversized", `{"x": "` + strings.Repeat("y", MaxTrackBytes) + `"}`, "limit"},
		{"unknown key", mut(`"name": "mini"`, `"name": "mini", "typo": 1`), "unknown field"},
		{"trailing", miniTrack + `{}`, "trailing data"},
		{"no name", mut(`"name": "mini"`, `"name": ""`), "no name"},
		{"no datasets", mut(`"datasets": [`, `"datasets": [], "ignored": [`), "unknown field"},
		{"nameless dataset", mut(`"name": "support"`, `"name": ""`), "has no name"},
		{"no domain", mut(`"domain": "support"`, `"domain": ""`), "no domain or spec"},
		{"zero docs", mut(`"docs": 40`, `"docs": 0`), "docs 0 outside"},
		{"huge docs", mut(`"docs": 40`, `"docs": 99999999`), "outside"},
		{"bad rate", mut(`"seed": 5`, `"seed": 5, "rate": 1.7`), "rate 1.7 outside"},
		{"no ops", mut(`"ops": [{"op": "filter", "predicate": "The ticket is urgent and needs immediate attention"}]`,
			`"ops": []`), "no ops"},
		{"no parallelism", mut(`"parallelism": [1, 2]`, `"parallelism": []`), "parallelism values"},
		{"zero knob", mut(`"partitions": [1, 2]`, `"partitions": [0]`), "outside [1, 64]"},
		{"huge knob", mut(`"parallelism": [1, 2]`, `"parallelism": [999]`), "outside [1, 64]"},
		{"no policies", mut(`"policies": ["max-quality"]`, `"policies": []`), "policies"},
		{"bad policy", mut(`"max-quality"`, `"warp-speed"`), "warp-speed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTrack([]byte(tc.doc))
			if err == nil {
				t.Fatalf("ParseTrack accepted a bad track")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseTrackDuplicateDataset(t *testing.T) {
	doc := strings.Replace(miniTrack, `"datasets": [`, `"datasets": [
    {"name": "support", "domain": "support", "docs": 10, "seed": 1,
     "ops": [{"op": "filter", "predicate": "p"}]},`, 1)
	if _, err := ParseTrack([]byte(doc)); err == nil || !strings.Contains(err.Error(), "duplicate dataset") {
		t.Fatalf("want duplicate-dataset error, got %v", err)
	}
}

func TestGridCap(t *testing.T) {
	doc := strings.Replace(miniTrack, `"parallelism": [1, 2]`,
		`"parallelism": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]`, 1)
	doc = strings.Replace(doc, `"partitions": [1, 2]`,
		`"partitions": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]`, 1)
	doc = strings.Replace(doc, `"policies": ["max-quality"]`,
		`"policies": ["max-quality", "min-cost"]`, 1)
	if _, err := ParseTrack([]byte(doc)); err == nil || !strings.Contains(err.Error(), "cells, limit") {
		t.Fatalf("want grid-cap error, got %v", err)
	}
}

func runMini(t *testing.T, dir string) *Trajectory {
	t.Helper()
	tr, err := Run(parseMini(t), strings.Repeat("ab", 32), Options{CorpusDir: dir})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return tr
}

func TestRunMiniTrack(t *testing.T) {
	dir := t.TempDir()
	tr := runMini(t, dir)
	if err := tr.Validate(); err != nil {
		t.Fatalf("trajectory invalid: %v", err)
	}
	if len(tr.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(tr.Cells))
	}
	for i, c := range tr.Cells {
		if c.ElapsedSimMS <= 0 || c.CostUSD <= 0 || c.Records == 0 {
			t.Fatalf("cell %d carries no measurements: %+v", i, c)
		}
		if c.Quality == nil {
			t.Fatalf("cell %d has no quality (pipeline leads with a filter)", i)
		}
		if c.DocsPerSimSec <= 0 {
			t.Fatalf("cell %d has no throughput", i)
		}
		if c.Domain != "support" || c.Docs != 40 {
			t.Fatalf("cell %d mislabeled: %+v", i, c)
		}
	}
	// Outputs and cost are invariant across the parallelism/partition
	// axes; only simulated elapsed moves.
	for _, c := range tr.Cells[1:] {
		if c.Records != tr.Cells[0].Records || c.CostUSD != tr.Cells[0].CostUSD {
			t.Fatalf("records/cost vary across the grid: %+v vs %+v", tr.Cells[0], c)
		}
	}
	if tr.Cells[0].ElapsedSimMS <= tr.Cells[3].ElapsedSimMS {
		t.Fatalf("p=1/parts=1 (%d ms) should be slower than p=2/parts=2 (%d ms)",
			tr.Cells[0].ElapsedSimMS, tr.Cells[3].ElapsedSimMS)
	}
}

func TestRunDeterministicAndCorpusReuse(t *testing.T) {
	dir := t.TempDir()
	a := runMini(t, dir)
	path := filepath.Join(dir, "support-n40-s5.ndjson")
	st1, err := os.Stat(path)
	if err != nil {
		t.Fatalf("corpus not written: %v", err)
	}
	b := runMini(t, dir)
	st2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st1.ModTime().Equal(st2.ModTime()) {
		t.Fatalf("second run regenerated the corpus instead of reusing it")
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		ca, cb := a.Cells[i], b.Cells[i]
		ca.WallMS, cb.WallMS = 0, 0
		if (ca.Quality == nil) != (cb.Quality == nil) || (ca.Quality != nil && *ca.Quality != *cb.Quality) {
			t.Fatalf("cell %d quality not deterministic: %+v vs %+v", i, ca.Quality, cb.Quality)
		}
		ca.Quality, cb.Quality = nil, nil
		if !reflect.DeepEqual(ca.Trace, cb.Trace) {
			t.Fatalf("cell %d trace not deterministic:\n  %+v\n  %+v", i, ca.Trace, cb.Trace)
		}
		ca.Trace, cb.Trace = nil, nil
		if ca != cb {
			t.Fatalf("cell %d not deterministic:\n  %+v\n  %+v", i, ca, cb)
		}
	}
}

// TestRunSpecDataset drives the config-driven path: the dataset's domain
// comes from a spec file, resolved relative to the track directory.
func TestRunSpecDataset(t *testing.T) {
	doc := strings.Replace(miniTrack,
		`"domain": "support"`,
		`"spec": "specs/support-triage.json"`, 1)
	track, err := ParseTrack([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(track, strings.Repeat("cd", 32), Options{CorpusDir: t.TempDir(), TrackDir: "../.."})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, c := range tr.Cells {
		if c.Domain != "support-triage" {
			t.Fatalf("cell %d domain %q, want the spec-declared support-triage", i, c.Domain)
		}
		if c.Quality == nil || c.Quality.F1 == 0 {
			t.Fatalf("cell %d: no quality against spec-generated truth: %+v", i, c.Quality)
		}
	}
}

// TestRunServerMode executes cells against a live pzserve and checks the
// trajectory carries the server's sim-clock measurements.
func TestRunServerMode(t *testing.T) {
	pzctx, err := pz.NewContext(pz.Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Context: pzctx})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	local := runMini(t, t.TempDir())
	tr, err := Run(parseMini(t), strings.Repeat("ef", 32), Options{CorpusDir: t.TempDir(), ServerURL: ts.URL})
	if err != nil {
		t.Fatalf("server-mode run: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Server != ts.URL {
		t.Fatalf("trajectory server %q, want %q", tr.Server, ts.URL)
	}
	for i, c := range tr.Cells {
		if c.Quality != nil {
			t.Fatalf("cell %d: server mode cannot score quality, got %+v", i, c.Quality)
		}
		if c.Records != local.Cells[i].Records {
			t.Fatalf("cell %d: server records %d != local %d", i, c.Records, local.Cells[i].Records)
		}
		if c.CostUSD != local.Cells[i].CostUSD {
			t.Fatalf("cell %d: server cost %v != local %v", i, c.CostUSD, local.Cells[i].CostUSD)
		}
	}
}

func TestRunUnknownDomain(t *testing.T) {
	doc := strings.Replace(miniTrack, `"domain": "support"`, `"domain": "nope"`, 1)
	track, err := ParseTrack([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(track, strings.Repeat("00", 32), Options{CorpusDir: t.TempDir()}); err == nil ||
		!strings.Contains(err.Error(), "unknown domain") {
		t.Fatalf("want unknown-domain error, got %v", err)
	}
}

func TestTrajectoryRoundTripAndValidate(t *testing.T) {
	tr := runMini(t, t.TempDir())
	tr.GitSHA = "deadbeef"
	tr.GeneratedAt = "2026-08-08T00:00:00Z"
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
	if err := tr.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Track != "mini" || len(got.Cells) != 4 || got.GitSHA != "deadbeef" {
		t.Fatalf("round trip mangled the trajectory: %+v", got)
	}

	bad := *got
	bad.SchemaVersion = 99
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("want schema_version error, got %v", err)
	}
	bad = *got
	bad.TrackDigest = "short"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("want digest error, got %v", err)
	}
	bad = *got
	bad.Cells = nil
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "no cells") {
		t.Fatalf("want no-cells error, got %v", err)
	}
	bad = *got
	bad.Cells = append([]Cell{}, got.Cells...)
	bad.Cells[0].Parallelism = 0
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "parallelism") {
		t.Fatalf("want parallelism error, got %v", err)
	}

	// A corrupt artifact on disk is an error, not a crash.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrajectory(path); err == nil {
		t.Fatalf("ReadTrajectory accepted garbage")
	}
}

func TestLoadTrackDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	if err := os.WriteFile(path, []byte(miniTrack), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, digest, err := LoadTrack(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "mini" || len(digest) != 64 {
		t.Fatalf("track %q digest %q", tr.Name, digest)
	}
	var raw map[string]any
	if err := json.Unmarshal([]byte(miniTrack), &raw); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadTrack(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatalf("LoadTrack of a missing file should fail")
	}
}

var _ = workloads.SupportPredicate // the mini track quotes it verbatim

// cascadeMiniTrack is miniTrack with an embedded corpus, a cascade-capable
// policy pair, and the two assertion kinds the cascade CI gate uses.
const cascadeMiniTrack = `{
  "name": "cascade-mini",
  "datasets": [
    {"name": "support", "domain": "support", "docs": 300, "seed": 17, "embed": true,
     "ops": [{"op": "filter", "predicate": "The ticket is urgent and needs immediate attention"}]}
  ],
  "parallelism": [2],
  "partitions": [1],
  "policies": ["max-quality", "cost-at-quality"],
  "policy_param": 0.95,
  "assertions": [
    {"kind": "cost_ratio_min", "dataset": "support",
     "baseline_policy": "max-quality", "candidate_policy": "cost-at-quality", "value": 2.0},
    {"kind": "quality_delta_max", "dataset": "support",
     "baseline_policy": "max-quality", "candidate_policy": "cost-at-quality", "value": 0.05}
  ]
}`

func TestParseTrackRejectsBadAssertions(t *testing.T) {
	mut := func(old, new string) string { return strings.Replace(cascadeMiniTrack, old, new, 1) }
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"unknown kind", mut(`"kind": "cost_ratio_min"`, `"kind": "speedup"`), "unknown kind"},
		{"undeclared dataset", mut(`"kind": "cost_ratio_min", "dataset": "support"`,
			`"kind": "cost_ratio_min", "dataset": "nope"`), "undeclared dataset"},
		{"off-axis policy", mut(`"baseline_policy": "max-quality", "candidate_policy": "cost-at-quality", "value": 2.0`,
			`"baseline_policy": "min-cost", "candidate_policy": "cost-at-quality", "value": 2.0`), "outside the track's policy axis"},
		{"zero ratio", mut(`"value": 2.0`, `"value": 0`), "positive ratio"},
		{"negative delta", mut(`"value": 0.05`, `"value": -0.1`), "non-negative delta"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTrack([]byte(tc.doc))
			if err == nil {
				t.Fatalf("ParseTrack accepted a bad assertion")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRunCascadeTrackAndAssertions is the end-to-end bench path behind
// tracks/cascade.json: the embed flag yields a sidecar, the cost policy's
// cell really runs a cascade (visible in its trace summary), and the
// track's own assertions hold on the measured grid.
func TestRunCascadeTrackAndAssertions(t *testing.T) {
	track, err := ParseTrack([]byte(cascadeMiniTrack))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tr, err := Run(track, strings.Repeat("01", 32), Options{CorpusDir: dir})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "support-n300-s17.ndjson.embeddings")); err != nil {
		t.Fatalf("embed dataset wrote no sidecar: %v", err)
	}
	if len(tr.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(tr.Cells))
	}
	var cascCell *Cell
	for i := range tr.Cells {
		if tr.Cells[i].Policy == "cost-at-quality" {
			cascCell = &tr.Cells[i]
		}
	}
	if cascCell == nil || cascCell.Trace == nil {
		t.Fatalf("no traced cost-at-quality cell in %+v", tr.Cells)
	}
	found := false
	for _, st := range cascCell.Trace.Stages {
		if strings.HasPrefix(st.Op, "cascade-filter(") {
			found = true
		}
	}
	if !found {
		t.Fatalf("cost-at-quality cell did not run a cascade: %+v", cascCell.Trace.Stages)
	}

	outcomes, err := EvalAssertions(track, tr)
	if err != nil {
		t.Fatalf("eval assertions: %v", err)
	}
	if len(outcomes) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(outcomes))
	}
	for _, o := range outcomes {
		if !o.Pass {
			t.Errorf("assertion failed: %s", o)
		}
		if !strings.Contains(o.String(), "PASS") && !strings.Contains(o.String(), "FAIL") {
			t.Errorf("outcome renders no verdict: %q", o)
		}
	}

	// An unsatisfiable ratio fails cleanly rather than erroring.
	track.Assertions[0].Value = 1e9
	outcomes, err = EvalAssertions(track, tr)
	if err != nil {
		t.Fatal(err)
	}
	if outcomes[0].Pass {
		t.Fatalf("1e9x ratio claim passed: %s", outcomes[0])
	}

	// Reuse keeps the sidecar: a second run must not error and must
	// leave the same embeddings file in place.
	if _, err := Run(track, strings.Repeat("01", 32), Options{CorpusDir: dir}); err != nil {
		t.Fatalf("reuse run: %v", err)
	}
}

func TestEvalAssertionsStructuralErrors(t *testing.T) {
	track, err := ParseTrack([]byte(cascadeMiniTrack))
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trajectory{Cells: []Cell{{Dataset: "support", Policy: "max-quality", CostUSD: 1}}}
	if _, err := EvalAssertions(track, tr); err == nil ||
		!strings.Contains(err.Error(), "no cells") {
		t.Fatalf("want no-cells error, got %v", err)
	}
	// Quality claims need measured quality on both sides.
	tr.Cells = append(tr.Cells, Cell{Dataset: "support", Policy: "cost-at-quality", CostUSD: 0.1})
	track.Assertions = track.Assertions[1:]
	if _, err := EvalAssertions(track, tr); err == nil ||
		!strings.Contains(err.Error(), "no quality") {
		t.Fatalf("want no-quality error, got %v", err)
	}
}

func TestParseTrackRejectsReoptAndPriors(t *testing.T) {
	mut := func(old, new string) string { return strings.Replace(miniTrack, old, new, 1) }
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"negative reopt after", mut(`"seed": 5,`, `"seed": 5, "reopt_after": -1,`), "reopt_after -1"},
		{"negative reopt divergence", mut(`"seed": 5,`, `"seed": 5, "reopt_divergence": -0.5,`), `unknown field "reopt_divergence"`},
		{"prior at scan", mut(`"seed": 5,`, `"seed": 5, "priors": {"0": {"selectivity": 0.5}},`), "prior position 0"},
		{"prior past pipeline", mut(`"seed": 5,`, `"seed": 5, "priors": {"9": {"selectivity": 0.5}},`), "prior position 9"},
		{"prior selectivity above one", mut(`"seed": 5,`, `"seed": 5, "priors": {"1": {"selectivity": 1.5}},`), "selectivity 1.5"},
		{"prior negative fanout", mut(`"seed": 5,`, `"seed": 5, "priors": {"1": {"fanout": -2}},`), "fanout -2"},
		{"undeclared baseline dataset", strings.Replace(miniTrack, `"policies": ["max-quality"]`,
			`"policies": ["max-quality"],
  "assertions": [{"kind": "cost_ratio_min", "dataset": "support", "baseline_dataset": "ghost",
    "baseline_policy": "max-quality", "candidate_policy": "max-quality", "value": 1}]`, 1),
			`undeclared baseline dataset "ghost"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTrack([]byte(tc.doc))
			if err == nil {
				t.Fatal("ParseTrack accepted a bad track")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestEvalAssertionsCrossDataset: a cost_ratio_min whose baseline cells
// come from a different dataset — the shape the reopt track uses to gate
// the mis-seeded pipeline's recovered cost against its omnisciently-seeded
// twin.
func TestEvalAssertionsCrossDataset(t *testing.T) {
	track := &Track{
		Assertions: []TrackAssertion{{
			Kind: AssertCostRatioMin, Dataset: "misseeded", BaselineDataset: "omniscient",
			BaselinePolicy: "max-quality", CandidatePolicy: "max-quality", Value: 0.9,
		}},
	}
	tr := &Trajectory{Cells: []Cell{
		{Dataset: "omniscient", Policy: "max-quality", CostUSD: 2.0},
		{Dataset: "misseeded", Policy: "max-quality", CostUSD: 2.1},
	}}
	outcomes, err := EvalAssertions(track, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomes[0].Measured; got < 0.95 || got > 0.96 {
		t.Fatalf("cross-dataset ratio = %v, want 2.0/2.1", got)
	}
	if !outcomes[0].Pass {
		t.Fatalf("ratio 0.952 >= 0.9 should pass: %s", outcomes[0])
	}
	if s := outcomes[0].String(); !strings.Contains(s, "misseeded/max-quality vs omniscient/max-quality") {
		t.Fatalf("cross-dataset outcome does not name both datasets: %q", s)
	}

	// The candidate dataset missing entirely is a structural error.
	tr.Cells = tr.Cells[:1]
	if _, err := EvalAssertions(track, tr); err == nil || !strings.Contains(err.Error(), "no cells") {
		t.Fatalf("want no-cells error, got %v", err)
	}
}

// TestRunServerModeTraceError: a daemon that serves queries but not the
// trace endpoint must leave a recorded reason on the cell, not a silently
// nil Trace.
func TestRunServerModeTraceError(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id": "j1", "status": "succeeded", "result":
			{"records": [], "count": 3, "candidates": 2, "elapsed_sim_ms": 10, "cost_usd": 0.5}}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	tr, err := Run(parseMini(t), strings.Repeat("cd", 32), Options{CorpusDir: t.TempDir(), ServerURL: ts.URL})
	if err != nil {
		t.Fatalf("server-mode run: %v", err)
	}
	for i, c := range tr.Cells {
		if c.Trace != nil {
			t.Fatalf("cell %d: got a trace from a daemon with no trace endpoint", i)
		}
		if !strings.Contains(c.TraceError, "HTTP 404") {
			t.Fatalf("cell %d: trace_error %q does not record the HTTP failure", i, c.TraceError)
		}
	}
}
