package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/optimizer"
	"repro/palimpchat"
	"repro/pz"
)

// E2Result summarizes the chat-driven pipeline construction (Figures 3-4).
type E2Result struct {
	// Utterances is the scripted conversation.
	Utterances []string
	// Actions is the chained tool sequence the agent produced.
	Actions []string
	// OutputDatasets is the record count after "run the pipeline".
	OutputDatasets int
	// DecomposedSteps counts tool calls triggered by the single compound
	// request (Figure 4: "the agent ... may decide to decompose a user
	// question into several tasks").
	DecomposedSteps int
	// Transcript is the rendered notebook.
	Transcript string
}

// RunE2 drives the full §3 conversation through PalimpChat.
func RunE2(dir string) (*E2Result, error) {
	docs := corpus.GenerateBiomed(corpus.PaperDemoBiomed())
	if _, err := dataset.MaterializeCorpus("sigmod-demo", dir, docs); err != nil {
		return nil, err
	}
	s, err := palimpchat.NewSession(palimpchat.Options{})
	if err != nil {
		return nil, err
	}
	compound := "I am interested in papers about colorectal cancer and for these extract the dataset name, description and url"
	utterances := []string{
		"load the papers from " + dir + " as sigmod-demo",
		compound,
		"optimize for maximum quality",
		"run the pipeline",
		"how much runtime was needed and how much did the LLM calls cost?",
	}
	before := 0
	var decomposed int
	for _, u := range utterances {
		if _, err := s.Chat(u); err != nil {
			return nil, fmt.Errorf("chat %q: %w", u, err)
		}
		if u == compound {
			decomposed = len(s.Steps()) - before
		}
		before = len(s.Steps())
	}
	var actions []string
	for _, st := range s.Steps() {
		actions = append(actions, st.Action)
	}
	out := 0
	if res := s.LastResult(); res != nil {
		out = len(res.Records)
	}
	return &E2Result{
		Utterances:      utterances,
		Actions:         actions,
		OutputDatasets:  out,
		DecomposedSteps: decomposed,
		Transcript:      s.Notebook().Render(),
	}, nil
}

// Table renders the E2 comparison.
func (r *E2Result) Table() string {
	var b strings.Builder
	b.WriteString("| metric | paper | measured |\n|---|---|---|\n")
	fmt.Fprintf(&b, "| chat-built pipeline yields datasets | 6 | %d |\n", r.OutputDatasets)
	fmt.Fprintf(&b, "| compound request decomposed into tool calls | several (Fig. 4) | %d |\n", r.DecomposedSteps)
	fmt.Fprintf(&b, "| tool chain | load→filter→convert→policy→execute→stats | %s |\n",
		strings.Join(r.Actions, "→"))
	return b.String()
}

// E3Result checks the generated code against Figure 6's structure.
type E3Result struct {
	// Code is the generated pipeline program.
	Code string
	// Elements maps each required Figure 6 element to presence.
	Elements map[string]bool
	// Missing counts absent elements.
	Missing int
}

// Figure6Elements are the structural landmarks of the paper's Figure 6.
var Figure6Elements = []string{
	"#Set input dataset",
	"pz.Dataset(source=",
	"#Filter dataset",
	"dataset.filter(",
	"#Create new schema",
	"field_names = [",
	"field_descriptions = [",
	"pz.Field(desc=desc)",
	"type(class_name, (pz.Schema,), schema)",
	"#Perform conversion",
	"pz.Cardinality.ONE_TO_MANY",
	"#Execute workload",
	"policy = pz.MaxQuality()",
	"records, execution_stats = Execute(output, policy=policy)",
}

// RunE3 builds the demo pipeline via chat and validates the exported code.
func RunE3(dir string) (*E3Result, error) {
	docs := corpus.GenerateBiomed(corpus.PaperDemoBiomed())
	if _, err := dataset.MaterializeCorpus("sigmod-demo", dir, docs); err != nil {
		return nil, err
	}
	s, err := palimpchat.NewSession(palimpchat.Options{})
	if err != nil {
		return nil, err
	}
	for _, u := range []string{
		"load the papers from " + dir + " as sigmod-demo",
		"filter for papers about colorectal cancer",
		"extract the dataset name, description and url",
	} {
		if _, err := s.Chat(u); err != nil {
			return nil, err
		}
	}
	code, err := s.GenerateCode()
	if err != nil {
		return nil, err
	}
	res := &E3Result{Code: code, Elements: map[string]bool{}}
	for _, el := range Figure6Elements {
		present := strings.Contains(code, el)
		res.Elements[el] = present
		if !present {
			res.Missing++
		}
	}
	return res, nil
}

// Table renders the E3 checklist.
func (r *E3Result) Table() string {
	var b strings.Builder
	b.WriteString("| Figure 6 element | present |\n|---|---|\n")
	for _, el := range Figure6Elements {
		mark := "yes"
		if !r.Elements[el] {
			mark = "MISSING"
		}
		fmt.Fprintf(&b, "| `%s` | %s |\n", el, mark)
	}
	return b.String()
}

// E4Result is one additional demo scenario's outcome.
type E4Result struct {
	Scenario    string
	Inputs      int
	Outputs     int
	CostUSD     float64
	Runtime     time.Duration
	QualityNote string
}

// RunE4Legal runs the legal-discovery scenario: filter contracts with
// indemnification clauses and extract parties and dates.
func RunE4Legal() (*E4Result, error) {
	ctx, err := pz.NewContext(pz.Config{Parallelism: 4})
	if err != nil {
		return nil, err
	}
	docs := corpus.GenerateLegal(corpus.DefaultLegal())
	src, err := ctx.RegisterDocs("legal", pz.TextFile, docs)
	if err != nil {
		return nil, err
	}
	inputs, _ := pz.Collect(src)
	parties, err := pz.DeriveSchema("ContractParties",
		"Parties and effective date of a contract.",
		[]string{"party_a", "party_b", "effective_date"},
		[]string{"The first party to the agreement", "The second party to the agreement", "The effective date of the agreement"})
	if err != nil {
		return nil, err
	}
	ds, _ := ctx.Dataset("legal")
	pipeline := ds.Filter("The contract contains an indemnification clause").
		Convert(parties, parties.Doc(), pz.OneToOne)
	res, err := ctx.Execute(pipeline, pz.MaxQuality())
	if err != nil {
		return nil, err
	}
	fq := metrics.FilterQuality(inputs, parentsOf(res.Records, inputs), "The contract contains an indemnification clause")
	acc, n := metrics.FieldAccuracy(res.Records, "party_a", "party_a")
	return &E4Result{
		Scenario: "legal discovery",
		Inputs:   len(inputs),
		Outputs:  len(res.Records),
		CostUSD:  res.CostUSD,
		Runtime:  res.Elapsed,
		QualityNote: fmt.Sprintf("filter %s; party_a accuracy %.2f over %d",
			fq.String(), acc, n),
	}, nil
}

// parentsOf maps output records back to the input records they derive
// from (via lineage), for filter-quality scoring after a convert.
func parentsOf(outputs, inputs []*pz.Record) []*pz.Record {
	byID := map[int64]*pz.Record{}
	for _, r := range inputs {
		byID[r.ID()] = r
	}
	seen := map[int64]bool{}
	var out []*pz.Record
	for _, r := range outputs {
		for _, pid := range r.Parents() {
			if p, ok := byID[pid]; ok && !seen[pid] {
				seen[pid] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// RunE4RealEstate runs the real-estate search scenario: retrieve modern
// listings, extract structure, and aggregate prices per neighborhood.
func RunE4RealEstate() (*E4Result, error) {
	ctx, err := pz.NewContext(pz.Config{Parallelism: 4})
	if err != nil {
		return nil, err
	}
	docs := corpus.GenerateRealEstate(corpus.DefaultRealEstate())
	src, err := ctx.RegisterDocs("listings", pz.TextFile, docs)
	if err != nil {
		return nil, err
	}
	inputs, _ := pz.Collect(src)
	listing, err := pz.DeriveSchema("Listing", "A real estate listing.",
		[]string{"neighborhood", "price:float", "bedrooms:int"},
		[]string{"The neighborhood of the listing", "The asking price in dollars", "The number of bedrooms"})
	if err != nil {
		return nil, err
	}
	ds, _ := ctx.Dataset("listings")
	pipeline := ds.Retrieve("modern renovated kitchen with designer finishes", 30).
		Filter("The listing has a modern, recently renovated interior").
		Convert(listing, listing.Doc(), pz.OneToOne).
		GroupBy([]string{"neighborhood"}, pz.Avg, "price").
		Sort("value", true)
	res, err := ctx.Execute(pipeline, pz.MaxQuality())
	if err != nil {
		return nil, err
	}
	return &E4Result{
		Scenario:    "real estate search",
		Inputs:      len(inputs),
		Outputs:     len(res.Records),
		CostUSD:     res.CostUSD,
		Runtime:     res.Elapsed,
		QualityNote: fmt.Sprintf("top neighborhoods by avg modern-listing price, %d groups", len(res.Records)),
	}, nil
}

// E4Table renders the demo-scenario results.
func E4Table(rows []*E4Result) string {
	var b strings.Builder
	b.WriteString("| scenario | inputs | outputs | cost | runtime | quality |\n|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %d | $%.3f | %.0fs | %s |\n",
			r.Scenario, r.Inputs, r.Outputs, r.CostUSD, r.Runtime.Seconds(), r.QualityNote)
	}
	return b.String()
}

// E6Row is one plan-enumeration measurement.
type E6Row struct {
	PipelineOps int
	SpaceSize   int
	Enumerated  int
	Pruned      int
	EnumTime    time.Duration
	PruneTime   time.Duration
}

// RunE6 measures the physical plan space versus pipeline length, with and
// without Pareto pruning (paper §2.1: "a search space of all possible
// physical plans").
func RunE6() ([]E6Row, error) {
	var rows []E6Row
	for nFilters := 1; nFilters <= 4; nFilters++ {
		ctx, ds, _, err := BiomedContext(pz.Config{})
		if err != nil {
			return nil, err
		}
		_ = ctx
		pipeline := ds
		for i := 0; i < nFilters; i++ {
			pipeline = pipeline.Filter(fmt.Sprintf("predicate %d about colorectal cancer", i))
		}
		clinical := ClinicalSchema()
		pipeline = pipeline.Convert(clinical, clinical.Doc(), pz.OneToMany)

		chain := pipeline.Chain()
		space := optimizer.PlanSpaceSize(chain)

		start := time.Now()
		_, all, err := optimizer.New(optimizer.Options{}).Optimize(chain, optimizer.MaxQuality{}, nil)
		if err != nil {
			return nil, err
		}
		enumTime := time.Since(start)

		start = time.Now()
		_, pruned, err := optimizer.New(optimizer.Options{Pruning: true}).Optimize(chain, optimizer.MaxQuality{}, nil)
		if err != nil {
			return nil, err
		}
		pruneTime := time.Since(start)

		rows = append(rows, E6Row{
			PipelineOps: len(chain),
			SpaceSize:   space,
			Enumerated:  len(all),
			Pruned:      len(pruned),
			EnumTime:    enumTime,
			PruneTime:   pruneTime,
		})
	}
	return rows, nil
}

// E6Table renders plan-space growth.
func E6Table(rows []E6Row) string {
	var b strings.Builder
	b.WriteString("| pipeline ops | plan space | enumerated | after pruning | enum time | prune time |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %d | %d | %d | %d | %s | %s |\n",
			r.PipelineOps, r.SpaceSize, r.Enumerated, r.Pruned,
			r.EnumTime.Round(time.Microsecond), r.PruneTime.Round(time.Microsecond))
	}
	return b.String()
}

// E7Row is one sentinel-calibration measurement.
type E7Row struct {
	SampleSize    int
	EstFinalCard  float64
	ActualRecords int
	SamplingCost  float64
	PlanChanged   bool
}

// RunE7 measures how sample-based calibration sharpens the optimizer's
// cardinality estimates (the sentinel execution of the Palimpzest
// substrate the demo runs on).
func RunE7() ([]E7Row, error) {
	base, err := planForSample(0)
	if err != nil {
		return nil, err
	}
	var rows []E7Row
	for _, k := range []int{0, 1, 2, 4, 8, 11} {
		row, err := planForSample(k)
		if err != nil {
			return nil, err
		}
		row.PlanChanged = row.planStr != base.planStr
		rows = append(rows, row.E7Row)
	}
	return rows, nil
}

type e7run struct {
	E7Row
	planStr string
}

func planForSample(k int) (*e7run, error) {
	ctx, ds, _, err := BiomedContext(pz.Config{SampleSize: k})
	if err != nil {
		return nil, err
	}
	pipeline := DemoPipeline(ds)
	res, err := ctx.Execute(pipeline, pz.MaxQuality())
	if err != nil {
		return nil, err
	}
	samplingCost := 0.0
	if k > 0 {
		// Sampling cost is the optimizer-context usage beyond the plan's
		// own execution; approximate as total minus a no-sampling run.
		plain, err := runPlainCost()
		if err != nil {
			return nil, err
		}
		samplingCost = res.CostUSD - plain
		if samplingCost < 0 {
			samplingCost = 0
		}
	}
	return &e7run{
		E7Row: E7Row{
			SampleSize:    k,
			EstFinalCard:  res.Plan.Final.Cardinality,
			ActualRecords: len(res.Records),
			SamplingCost:  samplingCost,
		},
		planStr: res.Plan.String(),
	}, nil
}

var plainCostCache *float64

func runPlainCost() (float64, error) {
	if plainCostCache != nil {
		return *plainCostCache, nil
	}
	ctx, ds, _, err := BiomedContext(pz.Config{})
	if err != nil {
		return 0, err
	}
	res, err := ctx.Execute(DemoPipeline(ds), pz.MaxQuality())
	if err != nil {
		return 0, err
	}
	plainCostCache = &res.CostUSD
	return res.CostUSD, nil
}

// E7Table renders calibration results.
func E7Table(rows []E7Row) string {
	var b strings.Builder
	b.WriteString("| sample size | estimated output card. | actual records | sampling cost | plan changed |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %d | %.1f | %d | $%.3f | %v |\n",
			r.SampleSize, r.EstFinalCard, r.ActualRecords, r.SamplingCost, r.PlanChanged)
	}
	return b.String()
}

// routingCase is one labeled utterance for E8.
type routingCase struct {
	Utterance string
	WantTool  string
}

// RoutingSuite is the labeled utterance set used for E8 (tool routing).
var RoutingSuite = []routingCase{
	{"load the papers from ./pdfs", "load_dataset"},
	{"register the folder ./contracts as legal", "load_dataset"},
	{"use the folder ./listings as the input dataset", "load_dataset"},
	{"create a schema called Author with fields name, email, affiliation", "create_schema"},
	{"define a new schema named Listing with the fields price, bedrooms", "create_schema"},
	{"filter for papers about colorectal cancer", "filter_dataset"},
	{"keep only contracts that contain an indemnification clause", "filter_dataset"},
	{"I am interested in listings with a modern renovated interior", "filter_dataset"},
	{"extract the dataset name, description and url", "convert_dataset"},
	{"pull out the party_a, party_b and effective_date", "convert_dataset"},
	{"convert the records using the ClinicalData schema", "convert_dataset"},
	{"optimize for maximum quality", "set_policy"},
	{"minimize the cost no matter the quality", "set_policy"},
	{"best quality under 120 seconds", "set_policy"},
	{"run the pipeline", "execute_pipeline"},
	{"execute the workload now", "execute_pipeline"},
	{"how much runtime was needed and how much did the LLM calls cost?", "show_statistics"},
	{"show the execution statistics", "show_statistics"},
	{"show me the extracted records", "show_records"},
	{"display the first 5 results", "show_records"},
	{"what is the current pipeline?", "describe_pipeline"},
	{"show me the code for the pipeline", "generate_code"},
	{"export the notebook to ./session.ipynb", "export_notebook"},
	{"reset the pipeline", "reset_pipeline"},
	{"what datasets are available?", "list_datasets"},
	{"save the current state as before-filter", "save_state"},
	{"restore the state before-filter", "restore_state"},
	{"explain the plan choice", "explain_plan"},
}

// E8Result compares routing accuracy with and without docstring examples
// (paper §2.3: "Providing a few examples of usage within the docstring
// proved to be the most efficient solution to improve the quality of the
// reasoning agent"). Two routing modes are measured: the full router (slot
// extractors + docstrings) and docstring similarity alone, which isolates
// the examples' contribution.
type E8Result struct {
	Cases int
	// Full router (extractors + docstrings).
	FullWith, FullWithout int
	// Docstring-similarity-only router.
	DocWith, DocWithout int
}

// RunE8 measures routing accuracy on the labeled suite.
func RunE8() (*E8Result, error) {
	type router func(s *palimpchat.Session, utterance string) string
	full := func(s *palimpchat.Session, u string) string {
		scores := s.Agent().Toolbox().Route(u)
		if len(scores) == 0 {
			return ""
		}
		return scores[0].Tool.Name
	}
	docOnly := func(s *palimpchat.Session, u string) string {
		scores := s.Agent().Toolbox().RouteByDoc(u)
		if len(scores) == 0 {
			return ""
		}
		return scores[0].Tool.Name
	}
	run := func(withoutExamples bool, route router) (int, error) {
		s, err := palimpchat.NewSession(palimpchat.Options{WithoutDocExamples: withoutExamples})
		if err != nil {
			return 0, err
		}
		correct := 0
		for _, c := range RoutingSuite {
			if route(s, c.Utterance) == c.WantTool {
				correct++
			}
		}
		return correct, nil
	}
	res := &E8Result{Cases: len(RoutingSuite)}
	var err error
	if res.FullWith, err = run(false, full); err != nil {
		return nil, err
	}
	if res.FullWithout, err = run(true, full); err != nil {
		return nil, err
	}
	if res.DocWith, err = run(false, docOnly); err != nil {
		return nil, err
	}
	if res.DocWithout, err = run(true, docOnly); err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the E8 comparison.
func (r *E8Result) Table() string {
	pct := func(n int) float64 { return float64(n) / float64(r.Cases) }
	var b strings.Builder
	b.WriteString("| router | examples | correct | accuracy |\n|---|---|---|---|\n")
	fmt.Fprintf(&b, "| full (extractors + docstrings) | yes | %d/%d | %.2f |\n", r.FullWith, r.Cases, pct(r.FullWith))
	fmt.Fprintf(&b, "| full (extractors + docstrings) | no | %d/%d | %.2f |\n", r.FullWithout, r.Cases, pct(r.FullWithout))
	fmt.Fprintf(&b, "| docstring similarity only | yes | %d/%d | %.2f |\n", r.DocWith, r.Cases, pct(r.DocWith))
	fmt.Fprintf(&b, "| docstring similarity only | no | %d/%d | %.2f |\n", r.DocWithout, r.Cases, pct(r.DocWithout))
	return b.String()
}

// AblationConvert compares bonded vs field-at-a-time conversion on the
// demo workload (cost up, quality up — DESIGN.md ablation).
type AblationConvert struct {
	Strategy string
	CostUSD  float64
	Runtime  time.Duration
	F1       float64
}

// RunAblationConvert executes both conversion strategies with the
// mid-tier model so quality differences are visible.
func RunAblationConvert() ([]AblationConvert, error) {
	var out []AblationConvert
	for _, bonded := range []bool{true, false} {
		ctx, ds, inputs, err := BiomedContext(pz.Config{})
		if err != nil {
			return nil, err
		}
		clinical := ClinicalSchema()
		chain := ds.Filter(DemoPredicate).Convert(clinical, clinical.Doc(), pz.OneToMany).Chain()
		phys := []ops.Physical{
			&ops.ScanExec{Source: chain[0].(*ops.Scan).Source},
			&ops.LLMFilterExec{Filter: chain[1].(*ops.Filter), Model: "atlas-large"},
			&ops.LLMConvertExec{Convert: chain[2].(*ops.Convert), Model: "pigeon-7b", Bonded: bonded},
		}
		res, err := ctx.Executor().Run(context.Background(), phys)
		if err != nil {
			return nil, err
		}
		q := metrics.ExtractionQuality(inputs, toPz(res.Records), corpus.DatasetMentionKind)
		name := "bonded"
		if !bonded {
			name = "field-at-a-time"
		}
		// Isolate the convert operator's own cost/time: the (identical)
		// upstream filter dominates pipeline totals and would mask the
		// strategy difference.
		row := AblationConvert{Strategy: name, F1: q.F1}
		for _, op := range res.Stats.Ops() {
			if op.Kind == "convert" {
				row.CostUSD = op.CostUSD
				row.Runtime = op.Time
			}
		}
		out = append(out, row)
	}
	return out, nil
}

func toPz(rs []*pz.Record) []*pz.Record { return rs }

// AblationConvertTable renders the conversion-strategy ablation.
func AblationConvertTable(rows []AblationConvert) string {
	var b strings.Builder
	b.WriteString("| strategy | cost | runtime | F1 |\n|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | $%.3f | %.0fs | %.3f |\n", r.Strategy, r.CostUSD, r.Runtime.Seconds(), r.F1)
	}
	return b.String()
}

// AblationPrefilter compares an LLM-only filter against an embedding
// pre-filter feeding a smaller LLM-filtered set.
type AblationPrefilter struct {
	Config  string
	CostUSD float64
	Runtime time.Duration
	F1      float64
}

// RunAblationPrefilter measures the embedding pre-filter design choice.
func RunAblationPrefilter() ([]AblationPrefilter, error) {
	var out []AblationPrefilter
	for _, pre := range []bool{false, true} {
		ctx, ds, inputs, err := BiomedContext(pz.Config{})
		if err != nil {
			return nil, err
		}
		chainDS := ds
		if pre {
			// Retrieval as a cheap semantic pre-filter before the LLM
			// filter.
			chainDS = chainDS.Retrieve(DemoPredicate, 8)
		}
		chainDS = chainDS.Filter(DemoPredicate)
		clinical := ClinicalSchema()
		chainDS = chainDS.Convert(clinical, clinical.Doc(), pz.OneToMany)
		res, err := ctx.Execute(chainDS, pz.MaxQuality())
		if err != nil {
			return nil, err
		}
		q := metrics.ExtractionQuality(inputs, res.Records, corpus.DatasetMentionKind)
		name := "llm filter only"
		if pre {
			name = "embed prefilter + llm filter"
		}
		out = append(out, AblationPrefilter{
			Config:  name,
			CostUSD: res.CostUSD,
			Runtime: res.Elapsed,
			F1:      q.F1,
		})
	}
	return out, nil
}

// AblationPrefilterTable renders the pre-filter ablation.
func AblationPrefilterTable(rows []AblationPrefilter) string {
	var b strings.Builder
	b.WriteString("| configuration | cost | runtime | F1 |\n|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | $%.3f | %.0fs | %.3f |\n", r.Config, r.CostUSD, r.Runtime.Seconds(), r.F1)
	}
	return b.String()
}
