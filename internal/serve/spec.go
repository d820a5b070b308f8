// Package serve is Palimpzest's query-serving subsystem: it turns the
// single-query library (pz.Context + the pipelined executor) into a
// concurrent multi-tenant engine. A Server accepts declarative pipeline
// specs over HTTP, admission-controls them (bounded in-flight queries and
// wait queue, load-shedding with 429), skips re-optimization on repeat
// queries via a cross-query plan cache keyed by canonical plan
// fingerprints, accounts per-tenant usage against cost budgets, and runs
// everything concurrently over one shared pz.Context with real
// cancellation threaded down to individual LLM calls. See
// docs/architecture.md ("Serving layer").
package serve

import (
	"encoding/json"
	"flag"
	"fmt"
	"strings"

	"repro/internal/ops"
	"repro/pz"
)

// Spec is the wire form of a declarative pipeline: the JSON format
// cmd/pzrun reads from disk and cmd/pzserve accepts on /v1/query. Dataset
// resolution prefers a name already registered on the serving context;
// Dir is the local-tool escape hatch that registers a folder on first use.
type Spec struct {
	// Dataset names the input data.
	Dataset DatasetSpec `json:"dataset"`
	// Ops is the logical operator chain (scan excluded; it comes from
	// Dataset).
	Ops []OpSpec `json:"ops"`
	// Policy optionally names the optimization policy ("max-quality",
	// "min-cost", ...); empty means max-quality.
	Policy string `json:"policy,omitempty"`
	// PolicyParam parameterizes constrained policies (budget, cap, floor).
	PolicyParam float64 `json:"policy_param,omitempty"`
	// Partitions requests a partition fan-out for the scan: > 1 splits
	// the dataset across up to that many parallel range readers
	// (byte-identical results, merged in dataset order), 1 forces a
	// single reader, 0 defers to the server's -partitions default. An
	// unindexed NDJSON dataset is one partition.
	Partitions int `json:"partitions,omitempty"`
	// ReoptAfter requests adaptive mid-flight re-optimization: the engine
	// observes each re-orderable filter stage for this many batches, then
	// hot-swaps the remaining run onto a cheaper filter ordering when the
	// observed statistics diverge from the plan's estimates by more than
	// optimizer.ReoptDivergence. 0 defers to the server's -reopt-after
	// default.
	ReoptAfter int `json:"reopt_after,omitempty"`
}

// EngineFlags declares on fs the engine flags cmd/pzrun and cmd/pzserve
// share, bound to cfg's fields: -parallelism (default 4), -partitions,
// -batch, -sample and -reopt-after (default 0 each). A spec's own
// partitions and reopt_after win over -partitions and -reopt-after. Check
// the parsed values with CheckEngineFlags.
func EngineFlags(fs *flag.FlagSet, cfg *pz.Config) {
	fs.IntVar(&cfg.Parallelism, "parallelism", 4, "max concurrent LLM calls per operator (>1 streams record batches through overlapping stages)")
	fs.IntVar(&cfg.Partitions, "partitions", 0, "default partition fan-out for dataset scans (0 = single reader, or the server's default when submitting to one)")
	fs.IntVar(&cfg.StreamBatchSize, "batch", 0, "record batch size between pipeline stages (0 = auto; floored at -parallelism)")
	fs.IntVar(&cfg.SampleSize, "sample", 0, "sentinel calibration sample size")
	fs.IntVar(&cfg.ReoptAfterBatches, "reopt-after", 0, "default batches each filter stage observes before the engine checks for a mid-flight re-plan (0 = disabled)")
}

// CheckEngineFlags rejects what NewContext would (a negative knob) and a
// -parallelism below 1, which a command line must spell out.
func CheckEngineFlags(cfg pz.Config) error {
	if cfg.Parallelism < 1 {
		return fmt.Errorf("-parallelism must be >= 1, got %d", cfg.Parallelism)
	}
	return cfg.Validate()
}

// DatasetSpec identifies a dataset by registered name, or by a local
// folder / NDJSON corpus file to register under that name on first use.
type DatasetSpec struct {
	// Name is the registry name.
	Name string `json:"name"`
	// Dir optionally points at a local folder to register under Name.
	Dir string `json:"dir,omitempty"`
	// File optionally points at an NDJSON corpus file (see
	// docs/howto-corpus.md) to register under Name; the engine streams
	// it without loading the corpus whole. Dir wins when both are set.
	File string `json:"file,omitempty"`
}

// OpSpec is one logical operator. Exactly the fields relevant to Op are
// set; the rest stay zero.
type OpSpec struct {
	Op           string   `json:"op"`
	Predicate    string   `json:"predicate,omitempty"`
	Schema       string   `json:"schema,omitempty"`
	Doc          string   `json:"doc,omitempty"`
	Fields       []string `json:"fields,omitempty"`
	Descriptions []string `json:"descriptions,omitempty"`
	Cardinality  string   `json:"cardinality,omitempty"`
	N            int      `json:"n,omitempty"`
	K            int      `json:"k,omitempty"`
	Query        string   `json:"query,omitempty"`
	Field        string   `json:"field,omitempty"`
	Func         string   `json:"func,omitempty"`
	Keys         []string `json:"keys,omitempty"`
	Descending   bool     `json:"descending,omitempty"`
}

// ParseSpec decodes a JSON pipeline spec, rejecting invalid fan-out
// requests at the edge (a negative partitions value is an error, not a
// silent clamp). Unknown keys are ignored.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("serve: parse spec: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// validate checks the spec's top-level knobs. ParseSpec and Build both
// call it, so specs constructed programmatically get the same checks.
func (s *Spec) validate() error {
	if s.Partitions < 0 {
		return fmt.Errorf("serve: spec partitions must be >= 0, got %d", s.Partitions)
	}
	if s.ReoptAfter < 0 {
		return fmt.Errorf("serve: spec reopt_after must be >= 0, got %d", s.ReoptAfter)
	}
	return nil
}

// ParsePolicy resolves the spec's policy (defaulting to max-quality).
func (s *Spec) ParsePolicy() (pz.Policy, error) {
	name := s.Policy
	if name == "" {
		name = "max-quality"
	}
	return pz.ParsePolicy(name, s.PolicyParam)
}

// Build resolves the spec against a pz.Context: the dataset is looked up
// by registered name (registering Dir under Name on first use), and each
// operator extends the pipeline. Builder errors surface immediately.
func (s *Spec) Build(ctx *pz.Context) (*pz.Dataset, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	name := s.Dataset.Name
	if name == "" {
		name = "dataset"
	}
	ds, err := ctx.Dataset(name)
	if err != nil {
		switch {
		case s.Dataset.Dir != "":
			if _, err := ctx.RegisterDir(name, s.Dataset.Dir); err != nil {
				return nil, fmt.Errorf("serve: register %q: %w", name, err)
			}
		case s.Dataset.File != "":
			if _, err := ctx.RegisterNDJSON(name, s.Dataset.File); err != nil {
				return nil, fmt.Errorf("serve: register %q: %w", name, err)
			}
		default:
			return nil, fmt.Errorf("serve: dataset %q not registered and no dir or file given", name)
		}
		if ds, err = ctx.Dataset(name); err != nil {
			return nil, err
		}
	}
	if s.Partitions != 0 {
		ds = ds.WithPartitions(s.Partitions)
	}
	if s.ReoptAfter != 0 {
		ds = ds.WithReopt(s.ReoptAfter)
	}
	for i, op := range s.Ops {
		ds, err = applyOp(ds, op)
		if err != nil {
			return nil, fmt.Errorf("serve: op %d (%s): %w", i, op.Op, err)
		}
	}
	if err := ds.Err(); err != nil {
		return nil, err
	}
	if _, err := ds.OutputSchema(); err != nil {
		return nil, err
	}
	return ds, nil
}

// applyOp extends the pipeline with one spec operator.
func applyOp(ds *pz.Dataset, op OpSpec) (*pz.Dataset, error) {
	switch strings.ToLower(op.Op) {
	case "filter":
		return ds.Filter(op.Predicate), nil
	case "convert":
		name := op.Schema
		if name == "" {
			name = "Extracted"
		}
		sc, err := pz.DeriveSchema(name, op.Doc, op.Fields, op.Descriptions)
		if err != nil {
			return nil, err
		}
		card := pz.OneToOne
		if strings.EqualFold(op.Cardinality, "one_to_many") {
			card = pz.OneToMany
		}
		return ds.Convert(sc, sc.Doc(), card), nil
	case "project":
		return ds.Project(op.Fields...), nil
	case "limit":
		return ds.Limit(op.N), nil
	case "distinct":
		return ds.Distinct(op.Fields...), nil
	case "aggregate":
		f, err := ParseAgg(op.Func)
		if err != nil {
			return nil, err
		}
		return ds.Aggregate(f, op.Field), nil
	case "groupby":
		f, err := ParseAgg(op.Func)
		if err != nil {
			return nil, err
		}
		return ds.GroupBy(op.Keys, f, op.Field), nil
	case "sort":
		return ds.Sort(op.Field, op.Descending), nil
	case "retrieve":
		return ds.Retrieve(op.Query, op.K), nil
	default:
		return nil, fmt.Errorf("unknown op %q", op.Op)
	}
}

// ParseAgg resolves an aggregate function name from a spec.
func ParseAgg(name string) (pz.AggFunc, error) {
	switch strings.ToLower(name) {
	case "count", "":
		return pz.Count, nil
	case "sum":
		return pz.Sum, nil
	case "avg", "average", "mean":
		return pz.Avg, nil
	case "min":
		return pz.Min, nil
	case "max":
		return pz.Max, nil
	default:
		return pz.Count, fmt.Errorf("unknown aggregate %q", name)
	}
}

// FromChain encodes a logical chain back into its wire spec — the inverse
// of Build for chains constructed through the pz builder. UDF filters
// cannot cross the wire and return an error.
func FromChain(chain []ops.Logical, policy string, policyParam float64) (*Spec, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("serve: empty chain")
	}
	scan, ok := chain[0].(*ops.Scan)
	if !ok {
		return nil, fmt.Errorf("serve: chain must start with scan, got %s", chain[0].Kind())
	}
	spec := &Spec{
		Dataset: DatasetSpec{Name: scan.Source.Name()},
		Policy:  policy, PolicyParam: policyParam,
	}
	for _, lop := range chain[1:] {
		op, err := encodeOp(lop)
		if err != nil {
			return nil, err
		}
		spec.Ops = append(spec.Ops, op)
	}
	return spec, nil
}

func encodeOp(lop ops.Logical) (OpSpec, error) {
	switch o := lop.(type) {
	case *ops.Filter:
		if o.UDF != nil {
			return OpSpec{}, fmt.Errorf("serve: UDF filter %q cannot be encoded", o.UDFName)
		}
		return OpSpec{Op: "filter", Predicate: o.Predicate}, nil
	case *ops.Convert:
		fields := make([]string, 0, len(o.Target.Fields()))
		descs := make([]string, 0, len(o.Target.Fields()))
		for _, f := range o.Target.Fields() {
			fields = append(fields, f.Name+":"+f.Type.String())
			descs = append(descs, f.Desc)
		}
		card := ""
		if o.Card == ops.OneToMany {
			card = "one_to_many"
		}
		return OpSpec{Op: "convert", Schema: o.Target.Name(), Doc: o.Target.Doc(),
			Fields: fields, Descriptions: descs, Cardinality: card}, nil
	case *ops.Project:
		return OpSpec{Op: "project", Fields: o.Fields}, nil
	case *ops.Limit:
		return OpSpec{Op: "limit", N: o.N}, nil
	case *ops.Distinct:
		return OpSpec{Op: "distinct", Fields: o.Fields}, nil
	case *ops.Aggregate:
		return OpSpec{Op: "aggregate", Func: o.Func.String(), Field: o.Field}, nil
	case *ops.GroupBy:
		return OpSpec{Op: "groupby", Keys: o.Keys, Func: o.Func.String(), Field: o.Field}, nil
	case *ops.Sort:
		return OpSpec{Op: "sort", Field: o.Field, Descending: o.Descending}, nil
	case *ops.Retrieve:
		return OpSpec{Op: "retrieve", Query: o.Query, K: o.K}, nil
	default:
		return OpSpec{}, fmt.Errorf("serve: cannot encode %s operator", lop.Kind())
	}
}
