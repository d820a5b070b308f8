package optimizer

import (
	"sort"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/ops"
	"repro/internal/record"
	"repro/internal/vector"
)

// Cascade calibration settings: the sentinel sample size, and the
// sample-positive recall the prefilter threshold must retain.
const (
	CascadeSample    = 256
	CascadeMinRecall = 0.995
)

// CascadeResolveModel is the escalation target every enumerated cascade
// uses: the catalog's highest-accuracy filter model, so a cascade's
// quality ceiling matches the champion plan it competes against.
const CascadeResolveModel = "atlas-large"

// cascadeVerifyModels are the cheap models enumerated as verify tiers.
var cascadeVerifyModels = []string{"atlas-medium", "atlas-small", "pigeon-7b"}

// CascadeCalibration is the result of the semantic-index calibration pass:
// fully-parameterized cascade candidates for one logical filter position,
// ready to join that position's physical options during enumeration.
type CascadeCalibration struct {
	// Pos is the logical chain position the candidates implement.
	Pos int
	// Candidates are the priced cascade strategies, one per verify model,
	// each carrying its measured CascadeEstimates.
	Candidates []ops.Physical
}

// cascadeSampleItem is one gold-labeled calibration record with its
// sidecar embedding.
type cascadeSampleItem struct {
	rec  *record.Record
	vec  []float64
	gold bool
}

// CalibrateCascade measures whether a vector-prefilter cascade is viable
// for the chain's first filter and, if so, returns priced candidates.
//
// The pass is deliberately conservative about when it runs at all: the
// chain must open with a scan over an embedding-sidecar corpus
// (dataset.EmbeddingSource) whose records carry ground truth, the first
// downstream operator must be a natural-language filter (deeper positions
// see derived records that may no longer resolve in the sidecar).
// Anything else returns (nil, nil) — cascade is an optimization, never a
// requirement.
//
// Calibration itself follows the paper's sentinel-sampling discipline, with
// one sanctioned extension: the sample's gold labels are used directly.
// They supply the Rocchio probe (positive minus negative embedding
// centroid), the keep threshold (the score quantile retaining
// CascadeMinRecall of sample positives), and the honest quality estimate —
// each candidate's end-to-end decisions on the sample are scored against
// gold with Laplace smoothing, so a ~256-record sample can never claim the
// near-perfect F1 a quality-floor policy would need to see to accept a
// cascade the evidence does not support. Verify- and resolve-tier sentinel
// calls are charged to the context's service like any other calibration.
func CalibrateCascade(chain []ops.Logical, ctx *ops.Ctx) (*CascadeCalibration, error) {
	if ctx == nil || len(chain) < 2 {
		return nil, nil
	}
	scan, ok := chain[0].(*ops.Scan)
	if !ok {
		return nil, nil
	}
	const pos = 1
	filter, ok := chain[pos].(*ops.Filter)
	if !ok || filter.UDF != nil || filter.Predicate == "" {
		return nil, nil
	}
	es, ok := scan.Source.(dataset.EmbeddingSource)
	if !ok {
		return nil, nil
	}
	ix, err := es.Embeddings()
	if err != nil {
		// A present-but-corrupt sidecar is a corpus integrity problem;
		// surface it rather than silently planning around it.
		return nil, err
	}
	if ix == nil || ix.Len() == 0 {
		return nil, nil
	}

	sample, err := sampleRecords(scan.Source, CascadeSample)
	if err != nil {
		return nil, err
	}

	var items []cascadeSampleItem
	var posVecs, negVecs [][]float64
	for _, r := range sample {
		truth := corpus.RecordTruth(r)
		if truth == nil {
			// No gold labels, no honest calibration.
			return nil, nil
		}
		vec, ok := ix.Vector(r.GetString("filename"))
		if !ok {
			continue
		}
		gold := llm.GoldFilterDecision(truth, filter.Predicate)
		items = append(items, cascadeSampleItem{rec: r, vec: vec, gold: gold})
		if gold {
			posVecs = append(posVecs, vec)
		} else {
			negVecs = append(negVecs, vec)
		}
	}
	// Below ~16 labeled records (or with a single-class sample) every
	// statistic here is noise; decline rather than mis-price.
	if len(items) < 16 {
		return nil, nil
	}
	probe := ops.BuildCascadeProbe(posVecs, negVecs)
	if probe == nil {
		return nil, nil
	}

	// Keep threshold: the positive-score quantile admitting
	// CascadeMinRecall of sample positives, nudged below the boundary
	// score so the boundary positive itself survives.
	posScores := make([]float64, 0, len(posVecs))
	for _, v := range posVecs {
		posScores = append(posScores, ops.CascadeScore(vector.Cosine(probe, v)))
	}
	sort.Float64s(posScores)
	allowMiss := int(float64(len(posScores)) * (1 - CascadeMinRecall))
	threshold := posScores[allowMiss] - 1e-9

	// The sample records the prefilter keeps, and the keep rate
	// measured over the whole sidecar: the vectors are already paid for,
	// so the full-corpus pass costs only compute and prices the prefilter
	// on its real input distribution rather than the sample's.
	var survivors []int
	for i, it := range items {
		if ops.CascadeScore(vector.Cosine(probe, it.vec)) >= threshold {
			survivors = append(survivors, i)
		}
	}
	if len(survivors) == 0 {
		return nil, nil
	}
	kept := 0
	for i := 0; i < ix.Len(); i++ {
		_, vec := ix.At(i)
		if ops.CascadeScore(vector.Cosine(probe, vec)) >= threshold {
			kept++
		}
	}
	keepRate := float64(kept) / float64(ix.Len())

	// Sentinel verify/resolve verdicts on the survivors, per verify
	// model. Resolve verdicts are deterministic in (record, predicate), so
	// one escalation call per record serves every verify model.
	resolveDec := map[int]bool{}
	resolve := func(i int) (bool, error) {
		if dec, ok := resolveDec[i]; ok {
			return dec, nil
		}
		resp, err := ctx.Client.Complete(ops.FilterRequest(CascadeResolveModel, filter.Predicate, items[i].rec))
		if err != nil {
			return false, err
		}
		resolveDec[i] = resp.Decision
		return resp.Decision, nil
	}

	casc := &CascadeCalibration{Pos: pos}
	for _, vm := range cascadeVerifyModels {
		// decisions holds the cascade's verdict on each survivor; records
		// the prefilter drops are absent, so they read as rejected.
		decisions := make(map[int]bool, len(survivors))
		escalated := 0
		for _, i := range survivors {
			resp, err := ctx.Client.Complete(ops.FilterRequest(vm, filter.Predicate, items[i].rec))
			if err != nil {
				return nil, err
			}
			dec := resp.Decision
			if resp.Confidence < ops.DefaultResolveConfidence {
				escalated++
				if dec, err = resolve(i); err != nil {
					return nil, err
				}
			}
			decisions[i] = dec
		}

		tp, fp, fn, predicted := 0, 0, 0, 0
		for i, it := range items {
			pred := decisions[i]
			if pred {
				predicted++
			}
			switch {
			case pred && it.gold:
				tp++
			case pred && !it.gold:
				fp++
			case !pred && it.gold:
				fn++
			}
		}
		// Laplace-smoothed precision/recall: the +1/+2 pseudo-counts cap
		// the estimate a finite sample can support, which is what keeps a
		// 0.995 quality floor honest against a 256-record sample.
		p := float64(tp+1) / float64(tp+fp+2)
		r := float64(tp+1) / float64(tp+fn+2)
		f1 := 2 * p * r / (p + r)

		casc.Candidates = append(casc.Candidates, &ops.CascadeFilterExec{
			Filter:       filter,
			VerifyModel:  vm,
			ResolveModel: CascadeResolveModel,
			Threshold:    threshold,
			QueryVec:     probe,
			Lookup:       ix,
			Cal: &ops.CascadeEstimates{
				KeepRate:       keepRate,
				EscalationRate: float64(escalated) / float64(len(survivors)),
				Selectivity:    float64(predicted) / float64(len(items)),
				F1:             f1,
			},
		})
	}
	return casc, nil
}
