// Package bench is the rally-style track harness behind cmd/pzbench: a
// track file declares a benchmark grid (datasets × parallelism ×
// partitions × policies), the runner generates or reuses the corpora,
// executes every cell through the real pz engine (or a running pzserve),
// and emits one schema-versioned trajectory artifact
// (BENCH_trajectory.json) — per-cell simulated time, cost,
// quality-vs-truth, and throughput, stamped with the git SHA and the
// track digest so runs are comparable across PRs. One artifact replaces
// the per-PR BENCH_*.json scatter.
package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/corpus/spec"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/pz"
)

// SchemaVersion is the trajectory artifact format version. v2 added the
// per-cell trace summary digest; v3 added per-cell trace_error, dataset
// estimate priors and re-optimization knobs, and cross-dataset assertion
// baselines.
const SchemaVersion = 3

// Limits on track shape: tracks are user input, and every knob multiplies
// the grid, so each axis is bounded before the runner fans out.
const (
	// MaxDatasets bounds the dataset axis.
	MaxDatasets = 16
	// MaxAxis bounds the parallelism/partitions/policies axes.
	MaxAxis = 16
	// MaxCells bounds the whole grid.
	MaxCells = 256
	// MaxDocs bounds one dataset's corpus size.
	MaxDocs = 1_000_000
	// MaxKnob bounds one parallelism or partition value.
	MaxKnob = 64
	// MaxTrackBytes bounds the raw track document.
	MaxTrackBytes = 1 << 20
)

// Track declares a benchmark grid. Every combination of dataset ×
// parallelism × partitions × policy becomes one cell.
type Track struct {
	// Name identifies the track in the trajectory.
	Name string `json:"name"`
	// Description is a one-line summary.
	Description string `json:"description,omitempty"`
	// Datasets are the corpora and pipelines to measure.
	Datasets []TrackDataset `json:"datasets"`
	// Parallelism lists the per-operator concurrency levels to sweep.
	Parallelism []int `json:"parallelism"`
	// Partitions lists the scan fan-outs to sweep.
	Partitions []int `json:"partitions"`
	// Policies lists the optimization policies to sweep ("max-quality",
	// "min-cost", ...).
	Policies []string `json:"policies"`
	// PolicyParam parameterizes constrained policies.
	PolicyParam float64 `json:"policy_param,omitempty"`
	// Assertions are pass/fail claims checked against the finished grid —
	// `pzbench run` evaluates them after writing the artifact and exits
	// non-zero when one fails, which is how CI gates on a track.
	Assertions []TrackAssertion `json:"assertions,omitempty"`
}

// TrackDataset is one dataset axis entry: a corpus recipe (domain, size,
// rate, seed) plus the declarative pipeline to run over it.
type TrackDataset struct {
	// Name labels the dataset in cells and names the generated corpus.
	Name string `json:"name"`
	// Domain is the corpus domain to generate from (a built-in Go domain
	// or the name of the domain Spec declares).
	Domain string `json:"domain"`
	// Spec optionally points at a domain-spec file (see
	// docs/howto-corpus.md) to compile and register before generation —
	// the config-driven path. Relative paths resolve against the track
	// file's directory.
	Spec string `json:"spec,omitempty"`
	// Docs is the corpus size.
	Docs int `json:"docs"`
	// Rate overrides the domain's positive-class rate (nil = default).
	Rate *float64 `json:"rate,omitempty"`
	// Seed makes the corpus deterministic.
	Seed int64 `json:"seed"`
	// Embed also writes the corpus's embedding sidecar (as `pzcorpus
	// embed` would), which is what lets the optimizer enumerate
	// cascade-filter plans for the dataset.
	Embed bool `json:"embed,omitempty"`
	// Ops is the declarative operator chain to execute (serve wire form).
	Ops []serve.OpSpec `json:"ops"`
	// Priors seeds the optimizer's cost-model estimates by logical plan
	// position (1 = the first op after the scan) — how a track stages the
	// mis-estimation scenarios re-optimization recovers from. Local mode
	// only; server cells ignore priors (they cannot cross the wire).
	Priors optimizer.Calibration `json:"priors,omitempty"`
	// ReoptAfter enables adaptive mid-flight re-optimization for the
	// dataset's cells: the observation window in batches (0 = off).
	ReoptAfter int `json:"reopt_after,omitempty"`
}

func (d *TrackDataset) rate() float64 {
	if d.Rate == nil {
		return -1
	}
	return *d.Rate
}

// Assertion kinds.
const (
	// AssertCostRatioMin claims the baseline policy's summed cost over a
	// dataset is at least Value times the candidate policy's.
	AssertCostRatioMin = "cost_ratio_min"
	// AssertQualityDeltaMax claims the candidate policy's mean F1 over a
	// dataset trails the baseline policy's by at most Value.
	AssertQualityDeltaMax = "quality_delta_max"
)

// TrackAssertion is one pass/fail claim a track makes about its own grid,
// comparing a candidate policy against a baseline policy on one dataset.
type TrackAssertion struct {
	// Kind selects the check (AssertCostRatioMin, AssertQualityDeltaMax).
	Kind string `json:"kind"`
	// Dataset names the dataset whose cells the claim is about.
	Dataset string `json:"dataset"`
	// BaselineDataset optionally draws the baseline cells from a different
	// dataset than the candidate's — how a track compares the same
	// pipeline under different priors (e.g. re-optimization recovery vs an
	// omnisciently-seeded twin). Empty means Dataset.
	BaselineDataset string `json:"baseline_dataset,omitempty"`
	// BaselinePolicy and CandidatePolicy are the two policy axis values
	// compared; both must appear in the track's Policies.
	BaselinePolicy  string `json:"baseline_policy"`
	CandidatePolicy string `json:"candidate_policy"`
	// Value is the threshold (minimum ratio, maximum delta).
	Value float64 `json:"value"`
}

// AssertionOutcome is one evaluated assertion, recorded in the trajectory
// so the artifact carries its own verdicts.
type AssertionOutcome struct {
	TrackAssertion
	// Measured is the observed ratio or delta.
	Measured float64 `json:"measured"`
	Pass     bool    `json:"pass"`
}

// ParseTrack decodes and validates a track document. Unknown keys are
// rejected so a typo'd axis cannot silently shrink a grid.
func ParseTrack(data []byte) (*Track, error) {
	if len(data) > MaxTrackBytes {
		return nil, fmt.Errorf("bench: track is %d bytes, limit %d", len(data), MaxTrackBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var t Track
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("bench: parse track: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("bench: trailing data after track document")
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// LoadTrack reads and parses a track file, returning the track and the
// SHA-256 digest of its bytes (the trajectory's track_digest).
func LoadTrack(path string) (*Track, string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("bench: %w", err)
	}
	t, err := ParseTrack(data)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	sum := sha256.Sum256(data)
	return t, hex.EncodeToString(sum[:]), nil
}

func (t *Track) validate() error {
	if t.Name == "" {
		return fmt.Errorf("bench: track has no name")
	}
	if len(t.Datasets) == 0 || len(t.Datasets) > MaxDatasets {
		return fmt.Errorf("bench: track needs 1..%d datasets, got %d", MaxDatasets, len(t.Datasets))
	}
	seen := map[string]bool{}
	for i := range t.Datasets {
		d := &t.Datasets[i]
		if d.Name == "" {
			return fmt.Errorf("bench: dataset %d has no name", i)
		}
		if seen[d.Name] {
			return fmt.Errorf("bench: duplicate dataset %q", d.Name)
		}
		seen[d.Name] = true
		if d.Domain == "" && d.Spec == "" {
			return fmt.Errorf("bench: dataset %q names no domain or spec", d.Name)
		}
		if d.Docs <= 0 || d.Docs > MaxDocs {
			return fmt.Errorf("bench: dataset %q docs %d outside [1, %d]", d.Name, d.Docs, MaxDocs)
		}
		if r := d.Rate; r != nil && (*r < 0 || *r > 1) {
			return fmt.Errorf("bench: dataset %q rate %v outside [0, 1]", d.Name, *r)
		}
		if len(d.Ops) == 0 {
			return fmt.Errorf("bench: dataset %q declares no ops", d.Name)
		}
		if d.ReoptAfter < 0 {
			return fmt.Errorf("bench: dataset %q reopt_after %d is negative", d.Name, d.ReoptAfter)
		}
		for pos, p := range d.Priors {
			if pos < 1 || pos > len(d.Ops) {
				return fmt.Errorf("bench: dataset %q prior position %d outside the pipeline [1, %d]", d.Name, pos, len(d.Ops))
			}
			if p.Selectivity < 0 || p.Selectivity > 1 {
				return fmt.Errorf("bench: dataset %q prior %d selectivity %v outside [0, 1]", d.Name, pos, p.Selectivity)
			}
			if p.Fanout < 0 {
				return fmt.Errorf("bench: dataset %q prior %d fanout %v is negative", d.Name, pos, p.Fanout)
			}
		}
	}
	for _, axis := range []struct {
		what string
		vals []int
	}{{"parallelism", t.Parallelism}, {"partitions", t.Partitions}} {
		if len(axis.vals) == 0 || len(axis.vals) > MaxAxis {
			return fmt.Errorf("bench: track needs 1..%d %s values, got %d", MaxAxis, axis.what, len(axis.vals))
		}
		for _, v := range axis.vals {
			if v < 1 || v > MaxKnob {
				return fmt.Errorf("bench: %s value %d outside [1, %d]", axis.what, v, MaxKnob)
			}
		}
	}
	if len(t.Policies) == 0 || len(t.Policies) > MaxAxis {
		return fmt.Errorf("bench: track needs 1..%d policies, got %d", MaxAxis, len(t.Policies))
	}
	for _, p := range t.Policies {
		if _, err := pz.ParsePolicy(p, t.PolicyParam); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
	}
	if n := t.Cells(); n > MaxCells {
		return fmt.Errorf("bench: grid has %d cells, limit %d", n, MaxCells)
	}
	policies := map[string]bool{}
	for _, p := range t.Policies {
		policies[p] = true
	}
	for i, a := range t.Assertions {
		switch a.Kind {
		case AssertCostRatioMin, AssertQualityDeltaMax:
		default:
			return fmt.Errorf("bench: assertion %d has unknown kind %q", i, a.Kind)
		}
		if !seen[a.Dataset] {
			return fmt.Errorf("bench: assertion %d names undeclared dataset %q", i, a.Dataset)
		}
		if a.BaselineDataset != "" && !seen[a.BaselineDataset] {
			return fmt.Errorf("bench: assertion %d names undeclared baseline dataset %q", i, a.BaselineDataset)
		}
		for _, p := range []string{a.BaselinePolicy, a.CandidatePolicy} {
			if !policies[p] {
				return fmt.Errorf("bench: assertion %d names policy %q outside the track's policy axis", i, p)
			}
		}
		if a.Kind == AssertCostRatioMin && a.Value <= 0 {
			return fmt.Errorf("bench: assertion %d needs a positive ratio, got %v", i, a.Value)
		}
		if a.Kind == AssertQualityDeltaMax && a.Value < 0 {
			return fmt.Errorf("bench: assertion %d needs a non-negative delta, got %v", i, a.Value)
		}
	}
	return nil
}

// EvalAssertions checks every track assertion against a finished
// trajectory. The returned outcomes cover all assertions (failing ones
// have Pass false); the error reports structural problems — a policy with
// no matching cells, or a quality claim over cells that measured none.
func EvalAssertions(t *Track, tr *Trajectory) ([]AssertionOutcome, error) {
	if len(t.Assertions) == 0 {
		return nil, nil
	}
	out := make([]AssertionOutcome, 0, len(t.Assertions))
	for i, a := range t.Assertions {
		base, err := gatherCells(tr, a.baselineDataset(), a.BaselinePolicy)
		if err != nil {
			return nil, fmt.Errorf("bench: assertion %d: %w", i, err)
		}
		cand, err := gatherCells(tr, a.Dataset, a.CandidatePolicy)
		if err != nil {
			return nil, fmt.Errorf("bench: assertion %d: %w", i, err)
		}
		o := AssertionOutcome{TrackAssertion: a}
		switch a.Kind {
		case AssertCostRatioMin:
			if cand.cost <= 0 {
				return nil, fmt.Errorf("bench: assertion %d: candidate %q spent $0, ratio undefined", i, a.CandidatePolicy)
			}
			o.Measured = base.cost / cand.cost
			o.Pass = o.Measured >= a.Value
		case AssertQualityDeltaMax:
			bf1, err := base.meanF1()
			if err != nil {
				return nil, fmt.Errorf("bench: assertion %d: baseline %q: %w", i, a.BaselinePolicy, err)
			}
			cf1, err := cand.meanF1()
			if err != nil {
				return nil, fmt.Errorf("bench: assertion %d: candidate %q: %w", i, a.CandidatePolicy, err)
			}
			o.Measured = bf1 - cf1
			o.Pass = o.Measured <= a.Value
		}
		out = append(out, o)
	}
	return out, nil
}

// baselineDataset resolves the dataset the baseline cells come from.
func (a *TrackAssertion) baselineDataset() string {
	if a.BaselineDataset != "" {
		return a.BaselineDataset
	}
	return a.Dataset
}

// String renders an outcome as one human-readable verdict line.
func (o AssertionOutcome) String() string {
	verdict := "PASS"
	if !o.Pass {
		verdict = "FAIL"
	}
	op := ">="
	if o.Kind == AssertQualityDeltaMax {
		op = "<="
	}
	candidate, baseline := o.CandidatePolicy, o.BaselinePolicy
	if o.BaselineDataset != "" && o.BaselineDataset != o.Dataset {
		candidate = o.Dataset + "/" + candidate
		baseline = o.BaselineDataset + "/" + baseline
	}
	return fmt.Sprintf("%s %s: %s vs %s: %.4f %s %.4f  %s",
		o.Kind, o.Dataset, candidate, baseline, o.Measured, op, o.Value, verdict)
}

// cellGroup aggregates the cells matching one (dataset, policy) pair.
type cellGroup struct {
	cost   float64
	f1     []float64
	missed int
}

func (g *cellGroup) meanF1() (float64, error) {
	if g.missed > 0 || len(g.f1) == 0 {
		return 0, fmt.Errorf("%d cell(s) measured no quality", g.missed)
	}
	var sum float64
	for _, v := range g.f1 {
		sum += v
	}
	return sum / float64(len(g.f1)), nil
}

func gatherCells(tr *Trajectory, dataset, policy string) (*cellGroup, error) {
	g := &cellGroup{}
	n := 0
	for _, c := range tr.Cells {
		if c.Dataset != dataset || c.Policy != policy {
			continue
		}
		n++
		g.cost += c.CostUSD
		if c.Quality != nil {
			g.f1 = append(g.f1, c.Quality.F1)
		} else {
			g.missed++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("no cells for dataset %q policy %q", dataset, policy)
	}
	return g, nil
}

// Cells is the grid size the track declares.
func (t *Track) Cells() int {
	return len(t.Datasets) * len(t.Parallelism) * len(t.Partitions) * len(t.Policies)
}

// Quality is a cell's filter quality against corpus ground truth.
type Quality struct {
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	FN        int     `json:"fn"`
}

// Cell is one measured grid point.
type Cell struct {
	// Dataset/Domain/Docs identify the corpus; Parallelism, Partitions,
	// and Policy locate the cell on the grid.
	Dataset     string `json:"dataset"`
	Domain      string `json:"domain"`
	Docs        int    `json:"docs"`
	Parallelism int    `json:"parallelism"`
	Partitions  int    `json:"partitions"`
	Policy      string `json:"policy"`
	// Records is the output cardinality; Candidates is how many plans the
	// optimizer considered.
	Records    int `json:"records"`
	Candidates int `json:"candidates"`
	// ElapsedSimMS and CostUSD are the engine's simulated runtime and LLM
	// spend — deterministic for a fixed track and git SHA.
	ElapsedSimMS int64   `json:"elapsed_sim_ms"`
	CostUSD      float64 `json:"cost_usd"`
	// DocsPerSimSec is corpus throughput in simulated time.
	DocsPerSimSec float64 `json:"docs_per_sim_sec"`
	// WallMS is the host wall-clock spent on the cell (machine-dependent;
	// compare ElapsedSimMS across runs, not this).
	WallMS int64 `json:"wall_ms"`
	// Quality is filter quality versus corpus truth (nil when the
	// pipeline has no leading filter or in server mode, where the bench
	// client does not see truth-bearing records).
	Quality *Quality `json:"quality,omitempty"`
	// Trace is the per-stage digest of the cell's query trace: where the
	// simulated time, cost, and records went, stage by stage. Nil when
	// the engine (or a remote pzserve) produced no trace.
	Trace *TraceSummary `json:"trace,omitempty"`
	// TraceError records why a server-mode trace fetch came back empty
	// (HTTP failure, old daemon, decode error) instead of leaving a
	// silently nil Trace — a missing digest is a finding, not a shrug.
	TraceError string `json:"trace_error,omitempty"`
}

// TraceSummary condenses a cell's query trace into the flat per-stage
// rows a trajectory diff cares about, dropping the span tree's
// partition/worker detail.
type TraceSummary struct {
	Stages []TraceStage `json:"stages"`
}

// TraceStage is one stage row of a cell's trace summary.
type TraceStage struct {
	Op          string  `json:"op"`
	RecordsIn   int     `json:"records_in"`
	RecordsOut  int     `json:"records_out"`
	Selectivity float64 `json:"selectivity"`
	LLMCalls    int     `json:"llm_calls,omitempty"`
	CostUSD     float64 `json:"cost_usd"`
	SimMS       int64   `json:"sim_ms"`
}

// summarizeTrace digests a query trace into per-stage rows. Costs are
// rounded like Cell.CostUSD so identical runs emit byte-identical
// artifacts despite completion-order float accumulation.
func summarizeTrace(root *trace.Span) *TraceSummary {
	if root == nil {
		return nil
	}
	var sum TraceSummary
	for _, st := range root.Stages() {
		sum.Stages = append(sum.Stages, TraceStage{
			Op:          st.OpID,
			RecordsIn:   st.RecordsIn,
			RecordsOut:  st.RecordsOut,
			Selectivity: st.Selectivity,
			LLMCalls:    st.LLMCalls,
			CostUSD:     math.Round(st.CostUSD*1e6) / 1e6,
			SimMS:       st.SimMS,
		})
	}
	if len(sum.Stages) == 0 {
		return nil
	}
	return &sum
}

// Trajectory is the single benchmark artifact one track run emits.
type Trajectory struct {
	SchemaVersion int    `json:"schema_version"`
	Track         string `json:"track"`
	Description   string `json:"description,omitempty"`
	// TrackDigest is the SHA-256 of the track file: two trajectories are
	// comparable cell-for-cell exactly when their digests match.
	TrackDigest string `json:"track_digest"`
	// GitSHA locates the measured code revision.
	GitSHA string `json:"git_sha,omitempty"`
	// GeneratedAt is the RFC 3339 run timestamp ("" in deterministic
	// test fixtures).
	GeneratedAt string `json:"generated_at,omitempty"`
	// Server is the pzserve URL when cells ran remotely ("" = in-process).
	Server string `json:"server,omitempty"`
	Cells  []Cell `json:"cells"`
	// Assertions are the track's evaluated claims (empty when the track
	// declares none), so the artifact carries its own verdicts.
	Assertions []AssertionOutcome `json:"assertions,omitempty"`
}

// Validate checks a trajectory is structurally sound — the gate behind
// `pzbench check` and the CI artifact step.
func (tr *Trajectory) Validate() error {
	if tr.SchemaVersion != SchemaVersion {
		return fmt.Errorf("bench: trajectory schema_version %d (want %d)", tr.SchemaVersion, SchemaVersion)
	}
	if tr.Track == "" {
		return fmt.Errorf("bench: trajectory names no track")
	}
	if len(tr.TrackDigest) != sha256.Size*2 {
		return fmt.Errorf("bench: track_digest %q is not a SHA-256 hex digest", tr.TrackDigest)
	}
	if len(tr.Cells) == 0 {
		return fmt.Errorf("bench: trajectory has no cells")
	}
	for i, c := range tr.Cells {
		switch {
		case c.Dataset == "":
			return fmt.Errorf("bench: cell %d has no dataset", i)
		case c.Docs <= 0:
			return fmt.Errorf("bench: cell %d has %d docs", i, c.Docs)
		case c.Parallelism < 1 || c.Partitions < 1:
			return fmt.Errorf("bench: cell %d has parallelism %d, partitions %d", i, c.Parallelism, c.Partitions)
		case c.Policy == "":
			return fmt.Errorf("bench: cell %d has no policy", i)
		case c.ElapsedSimMS < 0 || c.CostUSD < 0 || c.Records < 0:
			return fmt.Errorf("bench: cell %d has negative measurements", i)
		}
	}
	return nil
}

// ReadTrajectory loads and validates a trajectory artifact.
func ReadTrajectory(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var tr Trajectory
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &tr, nil
}

// Write stores the trajectory at path, indented, trailing newline.
func (tr *Trajectory) Write(path string) error {
	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Options configures one track run.
type Options struct {
	// CorpusDir is where generated corpora live; a corpus whose manifest
	// already matches the dataset recipe is reused, not regenerated.
	CorpusDir string
	// TrackDir resolves relative spec paths (usually the track file's
	// directory).
	TrackDir string
	// ServerURL, when set, runs cells against a running pzserve instead
	// of in-process (POST /v1/query?wait=1).
	ServerURL string
	// GitSHA stamps the trajectory.
	GitSHA string
	// Progress, when set, receives one line per completed cell.
	Progress func(string)
}

// Run executes the full grid and returns the trajectory. Corpora are
// generated (or reused) first, then every cell runs on a fresh pz context
// so no cache state leaks between cells.
func Run(t *Track, digest string, opts Options) (*Trajectory, error) {
	if opts.CorpusDir == "" {
		return nil, fmt.Errorf("bench: no corpus dir")
	}
	if err := os.MkdirAll(opts.CorpusDir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	paths := make(map[string]string, len(t.Datasets))
	domains := make(map[string]string, len(t.Datasets))
	for i := range t.Datasets {
		d := &t.Datasets[i]
		domain, err := ensureDomain(d, opts.TrackDir)
		if err != nil {
			return nil, err
		}
		path, err := ensureCorpus(d, domain, opts)
		if err != nil {
			return nil, err
		}
		paths[d.Name], domains[d.Name] = path, domain
	}

	tr := &Trajectory{
		SchemaVersion: SchemaVersion,
		Track:         t.Name,
		Description:   t.Description,
		TrackDigest:   digest,
		GitSHA:        opts.GitSHA,
		Server:        opts.ServerURL,
	}
	for i := range t.Datasets {
		d := &t.Datasets[i]
		for _, par := range t.Parallelism {
			for _, parts := range t.Partitions {
				for _, policy := range t.Policies {
					cell, err := runCell(t, d, domains[d.Name], paths[d.Name], par, parts, policy, opts)
					if err != nil {
						return nil, fmt.Errorf("bench: %s p=%d parts=%d %s: %w", d.Name, par, parts, policy, err)
					}
					tr.Cells = append(tr.Cells, *cell)
					if opts.Progress != nil {
						opts.Progress(fmt.Sprintf("%-12s p=%-2d parts=%-2d %-12s %6d ms  $%.4f  %d records",
							d.Name, par, parts, policy, cell.ElapsedSimMS, cell.CostUSD, cell.Records))
					}
				}
			}
		}
	}
	return tr, nil
}

// ensureDomain resolves a dataset's domain, compiling and registering its
// spec file first when one is declared.
func ensureDomain(d *TrackDataset, trackDir string) (string, error) {
	if d.Spec == "" {
		if _, ok := corpus.DomainByName(d.Domain); !ok {
			return "", fmt.Errorf("bench: dataset %q: unknown domain %q", d.Name, d.Domain)
		}
		return d.Domain, nil
	}
	path := d.Spec
	if !filepath.IsAbs(path) && trackDir != "" {
		path = filepath.Join(trackDir, path)
	}
	c, err := spec.Load(path)
	if err != nil {
		return "", fmt.Errorf("bench: dataset %q: %w", d.Name, err)
	}
	name := c.Spec().Name
	if d.Domain != "" && d.Domain != name {
		return "", fmt.Errorf("bench: dataset %q: spec %s declares domain %q, track says %q", d.Name, d.Spec, name, d.Domain)
	}
	if _, ok := corpus.DomainByName(name); !ok {
		if err := c.Register(); err != nil {
			return "", fmt.Errorf("bench: dataset %q: %w", d.Name, err)
		}
	}
	return name, nil
}

// ensureCorpus generates the dataset's corpus under CorpusDir, reusing an
// existing file whose manifest matches the recipe (domain, docs, seed).
// Embed datasets also get their embedding sidecar, back-filled even on
// the reuse path so flipping the flag on doesn't demand a regeneration.
func ensureCorpus(d *TrackDataset, domain string, opts Options) (string, error) {
	path := filepath.Join(opts.CorpusDir, fmt.Sprintf("%s-n%d-s%d.ndjson", domain, d.Docs, d.Seed))
	if m, err := corpus.ReadManifest(path); err == nil &&
		m.Domain == domain && m.NumDocs == d.Docs && m.Seed == d.Seed {
		return path, ensureSidecar(d, m, path)
	}
	g, err := corpus.NewGenerator(domain, d.Docs, d.rate(), d.Seed)
	if err != nil {
		return "", fmt.Errorf("bench: dataset %q: %w", d.Name, err)
	}
	cfg := map[string]any{"domain": domain, "docs": d.Docs, "seed": d.Seed}
	if d.Rate != nil {
		cfg["rate"] = *d.Rate
	}
	m, err := corpus.SaveNDJSON(path, g, d.Seed, cfg)
	if err != nil {
		return "", fmt.Errorf("bench: dataset %q: %w", d.Name, err)
	}
	return path, ensureSidecar(d, m, path)
}

// ensureSidecar writes the corpus's embedding sidecar when the dataset
// asks for one and the manifest doesn't reference it yet.
func ensureSidecar(d *TrackDataset, m *corpus.Manifest, path string) error {
	if !d.Embed || m.Embeddings != nil {
		return nil
	}
	if _, err := corpus.EmbedNDJSON(path, llm.EmbedDim, llm.EmbedVector); err != nil {
		return fmt.Errorf("bench: dataset %q: %w", d.Name, err)
	}
	return nil
}

// runCell measures one grid point.
func runCell(t *Track, d *TrackDataset, domain, corpusPath string, par, parts int, policy string, opts Options) (*Cell, error) {
	cell := &Cell{
		Dataset: d.Name, Domain: domain, Docs: d.Docs,
		Parallelism: par, Partitions: parts, Policy: policy,
	}
	pspec := &serve.Spec{
		Dataset:     serve.DatasetSpec{Name: d.Name, File: corpusPath},
		Ops:         d.Ops,
		Policy:      policy,
		PolicyParam: t.PolicyParam,
		Partitions:  parts,
		ReoptAfter:  d.ReoptAfter,
	}
	start := time.Now()
	if opts.ServerURL != "" {
		if err := runCellServer(cell, pspec, opts.ServerURL); err != nil {
			return nil, err
		}
	} else {
		if err := runCellLocal(cell, d, pspec, par, parts, corpusPath); err != nil {
			return nil, err
		}
	}
	cell.WallMS = time.Since(start).Milliseconds()
	// Partitioned pipelines accumulate per-partition costs in completion
	// order; round away the last-ulp float wobble so identical runs emit
	// byte-identical measurements.
	cell.CostUSD = math.Round(cell.CostUSD*1e6) / 1e6
	if cell.ElapsedSimMS > 0 {
		cell.DocsPerSimSec = float64(d.Docs) / (float64(cell.ElapsedSimMS) / 1000)
	}
	return cell, nil
}

func runCellLocal(cell *Cell, d *TrackDataset, pspec *serve.Spec, par, parts int, corpusPath string) error {
	ctx, err := pz.NewContext(pz.Config{
		Parallelism: par, Partitions: parts,
		EstimatePriors: d.Priors,
	})
	if err != nil {
		return err
	}
	src, err := ctx.RegisterNDJSON(d.Name, corpusPath)
	if err != nil {
		return err
	}
	ds, err := pspec.Build(ctx)
	if err != nil {
		return err
	}
	pol, err := pspec.ParsePolicy()
	if err != nil {
		return err
	}
	res, err := ctx.Execute(ds, pol)
	if err != nil {
		return err
	}
	cell.Records = len(res.Records)
	cell.Candidates = res.Candidates
	cell.ElapsedSimMS = res.Elapsed.Milliseconds()
	cell.CostUSD = res.CostUSD
	cell.Trace = summarizeTrace(res.Trace)
	if pred := leadingFilter(d.Ops); pred != "" {
		// Score as the corpus streams by: only the outputs' truth keys
		// are held, never the inputs.
		score := metrics.NewTruthScore(res.Records, pred)
		st, err := src.Stats()
		if err != nil {
			return err
		}
		if err := src.Iterate(0, st.NumRecords, func(r *pz.Record) error {
			score.Add(r)
			return nil
		}); err != nil {
			return err
		}
		q := score.PRF()
		cell.Quality = &Quality{
			Precision: q.Precision, Recall: q.Recall, F1: q.F1,
			TP: q.TP, FP: q.FP, FN: q.FN,
		}
	}
	return nil
}

// leadingFilter returns the predicate of the pipeline's first filter op,
// the one whose quality-vs-truth the trajectory records.
func leadingFilter(ops []serve.OpSpec) string {
	if len(ops) > 0 && strings.EqualFold(ops[0].Op, "filter") {
		return ops[0].Predicate
	}
	return ""
}

// runCellServer executes the cell against a running pzserve. The server
// sees the corpus path, not truth-bearing records, so Quality stays nil.
func runCellServer(cell *Cell, pspec *serve.Spec, url string) error {
	body, err := json.Marshal(pspec)
	if err != nil {
		return err
	}
	resp, err := http.Post(strings.TrimRight(url, "/")+"/v1/query?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var view struct {
		ID     string             `json:"id"`
		Status string             `json:"status"`
		Error  string             `json:"error"`
		Result *serve.QueryResult `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return fmt.Errorf("decode server response (HTTP %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || view.Result == nil {
		return fmt.Errorf("server returned HTTP %d (status %q, error %q)", resp.StatusCode, view.Status, view.Error)
	}
	cell.Records = view.Result.Count
	cell.Candidates = view.Result.Candidates
	cell.ElapsedSimMS = view.Result.ElapsedSimMS
	cell.CostUSD = view.Result.CostUSD
	// The trace digest is best-effort in server mode — the cell still
	// measures without one — but the reason it is missing is recorded on
	// the cell and warned about, not swallowed.
	if cell.Trace, err = fetchCellTrace(url, view.ID); err != nil {
		cell.TraceError = err.Error()
		fmt.Fprintf(os.Stderr, "bench: warning: %s: trace fetch failed: %v\n", cell.Dataset, err)
	}
	return nil
}

// fetchCellTrace retrieves and digests a completed job's trace. The error
// says why no digest came back (old daemon, HTTP failure, bad payload).
func fetchCellTrace(url, jobID string) (*TraceSummary, error) {
	if jobID == "" {
		return nil, fmt.Errorf("server response carried no job id")
	}
	resp, err := http.Get(strings.TrimRight(url, "/") + "/v1/jobs/" + jobID + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/jobs/%s/trace returned HTTP %d", jobID, resp.StatusCode)
	}
	var doc trace.Document
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode trace document: %w", err)
	}
	return summarizeTrace(doc.Trace), nil
}
