package palimpchat

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/archytas"
	"repro/internal/textutil"
)

// demoBuilds are the compound filter+extract requests of the three demo
// scenarios.
var demoBuilds = []string{
	"I am interested in papers about colorectal cancer and for these extract the dataset name, description and url",
	"filter for papers about colorectal cancer and extract the dataset name, description and url",
	"keep only contracts that contain an indemnification clause and pull out the party_a, party_b and effective_date",
	"I am interested in contracts with an indemnification clause and for these extract the party_a, party_b and effective_date",
	"I am interested in listings with a modern renovated interior and extract the neighborhood, price and bedrooms",
	"keep only listings with a modern, recently renovated interior and pull out the neighborhood, price and bedrooms",
}

// demoUtterances are the demo conversations' turns, builds included.
var demoUtterances = append([]string{
	"load the papers from ./demo/biomed as sigmod-demo",
	"register the folder \"./demo/legal\" as legal",
	"use the folder ./demo/realestate as the input dataset",
	"optimize for maximum quality",
	"minimize the cost no matter the quality",
	"maximize quality while staying under $0.50",
	"run the pipeline",
	"show the execution statistics",
	"how much runtime was needed and how much did the LLM calls cost?",
	"show me the extracted records",
	"generate the final code",
	"download the notebook",
	"create a schema called Author with fields name, email, affiliation",
	"convert the records using the ClinicalData schema",
	"what is the current pipeline?",
	"save the current state as before-filter",
	"explain the plan choice",
}, demoBuilds...)

func demoToolbox(t testing.TB, withoutExamples bool) *archytas.Toolbox {
	t.Helper()
	s, err := NewSession(Options{WithoutDocExamples: withoutExamples})
	if err != nil {
		t.Fatal(err)
	}
	return s.Agent().Toolbox()
}

// referenceRoute ranks the toolbox's tools by a from-scratch tf-idf: a
// corpus of every routing docstring plus the utterance, smoothed idf, and
// the cosine of the utterance's vector with each docstring's. Extractable
// tools rank first, then higher similarity, then registration order.
func referenceRoute(tb *archytas.Toolbox, withExamples bool, utterance string) []archytas.Score {
	var tools []*archytas.Tool
	var docs []string
	for _, name := range tb.Names() {
		tool, _ := tb.Get(name)
		tools = append(tools, tool)
		docs = append(docs, tool.DocText(withExamples))
	}
	df := map[string]int{}
	for _, d := range append(docs[:len(docs):len(docs)], utterance) {
		seen := map[string]bool{}
		for _, term := range textutil.Terms(d) {
			if !seen[term] {
				seen[term] = true
				df[term]++
			}
		}
	}
	vectorize := func(text string) map[string]float64 {
		v := map[string]float64{}
		for _, term := range textutil.Terms(text) {
			v[term]++
		}
		for term, f := range v {
			v[term] = f * (math.Log(float64(len(docs)+2)/float64(df[term]+1)) + 1)
		}
		return v
	}
	norm := func(v map[string]float64) float64 {
		var s float64
		for _, x := range v {
			s += x * x
		}
		return math.Sqrt(s)
	}
	q := vectorize(utterance)
	scores := make([]archytas.Score, len(tools))
	for i, tool := range tools {
		scores[i].Tool = tool
		d := vectorize(docs[i])
		var dot float64
		for term, w := range q {
			dot += w * d[term]
		}
		if dot != 0 {
			scores[i].Similarity = dot / (norm(q) * norm(d))
		}
		if tool.Extract != nil {
			_, scores[i].Extractable = tool.Extract(utterance)
		}
	}
	sort.SliceStable(scores, func(i, j int) bool {
		if scores[i].Extractable != scores[j].Extractable {
			return scores[i].Extractable
		}
		return scores[i].Similarity > scores[j].Similarity
	})
	return scores
}

func TestRouteMatchesReferenceTFIDF(t *testing.T) {
	var utterances []string
	for _, u := range demoUtterances {
		utterances = append(utterances, u)
		utterances = append(utterances, archytas.Decompose(u)...)
	}
	for _, withExamples := range []bool{true, false} {
		tb := demoToolbox(t, !withExamples)
		check := func(u string) bool {
			got, want := tb.Route(u), referenceRoute(tb, withExamples, u)
			if len(got) != len(want) {
				t.Errorf("Route(%q) ranked %d tools, reference %d", u, len(got), len(want))
				return false
			}
			for i := range got {
				if got[i].Tool != want[i].Tool || math.Abs(got[i].Similarity-want[i].Similarity) > 1e-12 {
					t.Errorf("examples=%v Route(%q)[%d] = %s %.17g, reference %s %.17g", withExamples, u, i,
						got[i].Tool.Name, got[i].Similarity, want[i].Tool.Name, want[i].Similarity)
					return false
				}
			}
			return true
		}
		for _, u := range utterances {
			check(u)
		}
		if err := quick.Check(check, nil); err != nil {
			t.Error(err)
		}
	}
}

func TestRouteScoresBitIdentical(t *testing.T) {
	tb := demoToolbox(t, false)
	for _, u := range demoBuilds {
		want := map[string]float64{}
		for _, s := range tb.Route(u) {
			want[s.Tool.Name] = s.Similarity
		}
		for i := 0; i < 200; i++ {
			for _, s := range tb.Route(u) {
				if s.Similarity != want[s.Tool.Name] {
					t.Fatalf("Route(%q) call %d: %s similarity %.17g, first call %.17g",
						u, i, s.Tool.Name, s.Similarity, want[s.Tool.Name])
				}
			}
		}
	}
}

var routeSink []archytas.Score

// BenchmarkRoute routes one segment of each demo turn class over the
// PalimpChat toolset, the index already built.
func BenchmarkRoute(b *testing.B) {
	tb := demoToolbox(b, false)
	for _, c := range []struct{ class, segment string }{
		{"load", "load the papers from ./demo/biomed as sigmod-demo"},
		{"build", "filter for papers about colorectal cancer"},
		{"run", "run the pipeline"},
		{"report", "show the execution statistics"},
		{"codegen", "generate the final code"},
	} {
		b.Run(c.class, func(b *testing.B) {
			tb.Route(c.segment)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				routeSink = tb.Route(c.segment)
			}
		})
	}
}
