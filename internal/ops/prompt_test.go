package ops

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/llm"
	"repro/internal/schema"
)

// recordingClient passes every request to inner and keeps it.
type recordingClient struct {
	inner llm.Completer
	mu    sync.Mutex
	reqs  []llm.Request
}

func (c *recordingClient) Complete(req llm.Request) (*llm.Response, error) {
	c.mu.Lock()
	c.reqs = append(c.reqs, req)
	c.mu.Unlock()
	return c.inner.Complete(req)
}

// filterPromptRef and convertPromptRef are the prompts the operators
// built and priced when every request carried its rendered text.
func filterPromptRef(predicate, text string) string {
	return "You are evaluating a filter over a data record.\nCondition: " + predicate +
		"\nRecord:\n" + text + "\nAnswer exactly true or false."
}

func convertPromptRef(desc string, fields []schema.Field, text string) string {
	var b strings.Builder
	b.WriteString("Extract structured data. " + desc + "\nFields:\n")
	for _, f := range fields {
		b.WriteString("- " + f.Name + " (" + f.Type.String() + "): " + f.Desc + "\n")
	}
	b.WriteString("Text:\n" + text + "\nRespond with JSON.")
	return b.String()
}

// TestRenderedPromptsMatchTheBuiltOnes: the requests the plain filter,
// both cascade tiers and both convert strategies issue render to the
// prompts the operators used to build, byte for byte, and are priced at
// those prompts' tokens.
func TestRenderedPromptsMatchTheBuiltOnes(t *testing.T) {
	recs, ix := cascadeFixture(t, 60)
	probe, threshold := calibrateProbe(t, recs, ix, cascadePredicate)
	ctx, _, _ := newCtx(t, 2)
	rc := &recordingClient{inner: ctx.Client}
	ctx.Client = rc
	filter := &Filter{Predicate: cascadePredicate}
	route := schema.MustNew("Route", "Route a support ticket to a queue.",
		schema.Field{Name: "queue", Type: schema.String, Desc: "The queue that should handle the ticket"},
		schema.Field{Name: "priority", Type: schema.Int, Desc: "Priority from 1 to 5"},
		schema.Field{Name: "tags", Type: schema.StringList, Desc: "Topic tags"},
	)
	convert := &Convert{Target: route, Desc: route.Doc(), Card: OneToOne}
	for i, op := range []Physical{
		&LLMFilterExec{Filter: filter, Model: "atlas-small"},
		&CascadeFilterExec{Filter: filter, VerifyModel: "atlas-medium", ResolveModel: "atlas-large",
			Threshold: threshold, QueryVec: probe, Lookup: ix},
		&LLMConvertExec{Convert: convert, Model: "atlas-medium", Bonded: true},
		&LLMConvertExec{Convert: convert, Model: "atlas-medium", Bonded: false},
	} {
		ctx.SetCurrentOp(i + 1)
		if _, err := op.Execute(ctx, recs); err != nil {
			t.Fatal(err)
		}
	}
	models := map[string]int{}
	fieldwise := 0
	for _, req := range rc.reqs {
		var want string
		switch req.Task {
		case llm.TaskFilter:
			want = filterPromptRef(req.Predicate, req.Record.Text())
		case llm.TaskExtract:
			if req.Desc != route.Doc() {
				t.Fatalf("extract request carries description %q, want the convert's", req.Desc)
			}
			want = convertPromptRef(route.Doc(), req.Fields, req.Record.Text())
			if len(req.Fields) == 1 {
				fieldwise++
			}
		}
		models[req.Model]++
		if got := req.Render(); got != want {
			t.Fatalf("%s %v request renders\n%q\nwant\n%q", req.Model, req.Task, got, want)
		}
		if got, want := req.InputTokens(), llm.CountTokens(want); got != want {
			t.Fatalf("%s %v request priced at %d tokens, its prompt has %d", req.Model, req.Task, got, want)
		}
	}
	if models["atlas-small"] != len(recs) || models["atlas-medium"] == 0 || models["atlas-large"] == 0 ||
		fieldwise != len(recs)*len(route.Fields()) {
		t.Errorf("recorded requests per model %v, %d fieldwise; want every operator's", models, fieldwise)
	}
}
