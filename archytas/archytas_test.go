package archytas

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/tmpl"
)

// testTool builds a minimal working tool.
func testTool(name, doc string, examples ...string) *Tool {
	return &Tool{
		Name:     name,
		Doc:      doc,
		Examples: examples,
		Run: func(env *Env, args map[string]any) (string, error) {
			return "ran " + name, nil
		},
	}
}

func TestToolValidate(t *testing.T) {
	good := testTool("ok_tool", "Does a thing.")
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Tool{
		{Doc: "x", Run: good.Run},
		{Name: "has space", Doc: "x", Run: good.Run},
		{Name: "no_doc", Run: good.Run},
		{Name: "no_run", Doc: "x"},
		{Name: "dup_param", Doc: "x", Run: good.Run, Params: []Param{{Name: "a"}, {Name: "a"}}},
		{Name: "unnamed_param", Doc: "x", Run: good.Run, Params: []Param{{}}},
	}
	for i, tool := range bad {
		if err := tool.Validate(); err == nil {
			t.Errorf("bad tool %d validated", i)
		}
	}
}

func TestCheckArgs(t *testing.T) {
	tool := &Tool{
		Name: "t", Doc: "d",
		Params: []Param{
			{Name: "s", Required: true, Kind: ParamString},
			{Name: "l", Kind: ParamStringList},
			{Name: "n", Kind: ParamNumber},
		},
		Run: func(*Env, map[string]any) (string, error) { return "", nil },
	}
	if err := tool.CheckArgs(map[string]any{"s": "x", "l": []string{"a"}, "n": 3}); err != nil {
		t.Fatal(err)
	}
	if err := tool.CheckArgs(map[string]any{"s": "x", "n": 2.5}); err != nil {
		t.Fatal(err)
	}
	cases := []map[string]any{
		{},                          // missing required
		{"s": 7},                    // wrong kind
		{"s": "x", "l": "not-list"}, // wrong kind
		{"s": "x", "n": "NaN"},      // wrong kind
	}
	for i, args := range cases {
		if err := tool.CheckArgs(args); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRenderCodeFigure2(t *testing.T) {
	tool := &Tool{
		Name: "create_schema",
		Doc:  "Generate a new extraction schema.",
		Template: tmpl.MustParse(
			`class_name = "{{ schema_name }}"
fields = [{{ field_names|join:", " }}]`),
		Run: func(*Env, map[string]any) (string, error) { return "", nil },
	}
	env := NewEnv()
	code, err := tool.RenderCode(env, map[string]any{
		"schema_name": "Author",
		"field_names": []string{"name", "email"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, `class_name = "Author"`) || !strings.Contains(code, "name, email") {
		t.Errorf("code = %q", code)
	}
	// Args shadow env.
	env.Set("schema_name", "FromEnv")
	code, _ = tool.RenderCode(env, map[string]any{"schema_name": "FromArgs", "field_names": []string{}})
	if !strings.Contains(code, "FromArgs") {
		t.Errorf("args did not shadow env: %q", code)
	}
}

func TestEnvBasics(t *testing.T) {
	env := NewEnv()
	env.Set("a", 1)
	env.Set("b", "two")
	if v, ok := env.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = %v, %v", v, ok)
	}
	if env.GetString("b") != "two" || env.GetString("missing") != "" {
		t.Error("GetString wrong")
	}
	if got := env.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Names = %v", got)
	}
	snap := env.Snapshot()
	env.Set("a", 99)
	if snap["a"] != 1 {
		t.Error("snapshot not isolated")
	}
	env.Delete("a")
	if _, ok := env.Get("a"); ok {
		t.Error("Delete failed")
	}
}

func TestToolboxRegisterAndGet(t *testing.T) {
	tb := NewToolbox()
	if err := tb.Register(testTool("alpha", "First tool.")); err != nil {
		t.Fatal(err)
	}
	if err := tb.Register(testTool("alpha", "Duplicate.")); err == nil {
		t.Error("duplicate registration accepted")
	}
	if _, err := tb.Get("alpha"); err != nil {
		t.Error(err)
	}
	if _, err := tb.Get("nope"); err == nil || !strings.Contains(err.Error(), "alpha") {
		t.Errorf("missing-tool error should list tools: %v", err)
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestRouteByDocstring(t *testing.T) {
	tb := NewToolbox()
	tb.MustRegister(testTool("load_dataset",
		"Register an input dataset from a local folder of files.",
		"load the papers from ./pdfs", "use the folder ./data as input dataset"))
	tb.MustRegister(testTool("filter_dataset",
		"Filter the dataset records with a natural language predicate condition.",
		"keep only papers about colorectal cancer", "filter for contracts with indemnification"))
	tb.MustRegister(testTool("execute_pipeline",
		"Run the pipeline and produce output records.",
		"run the pipeline", "execute the workload"))

	cases := map[string]string{
		"filter for papers about colorectal cancer": "filter_dataset",
		"load my dataset from the folder ./papers":  "load_dataset",
		"run the pipeline now":                      "execute_pipeline",
	}
	for utt, want := range cases {
		scores := tb.Route(utt)
		if scores[0].Tool.Name != want {
			t.Errorf("Route(%q) = %s, want %s", utt, scores[0].Tool.Name, want)
		}
	}
}

func TestRouteExtractablePreferred(t *testing.T) {
	tb := NewToolbox()
	decoy := testTool("decoy", "Filter filter filter everything filter.")
	tb.MustRegister(decoy)
	target := testTool("real_filter", "Unrelated words entirely.")
	target.Extract = func(u string) (map[string]any, bool) {
		if strings.Contains(u, "filter") {
			return map[string]any{"predicate": u}, true
		}
		return nil, false
	}
	tb.MustRegister(target)
	scores := tb.Route("please filter the things")
	if scores[0].Tool.Name != "real_filter" {
		t.Fatalf("extractable tool not preferred: %s", scores[0].Tool.Name)
	}
	if scores[0].Args["predicate"] == "" {
		t.Error("extracted args missing")
	}
}

func TestBestFloor(t *testing.T) {
	tb := NewToolbox()
	tb.MustRegister(testTool("zeta", "Completely unrelated documentation text."))
	if best := tb.Best("quantum entanglement surfboard", 0.5); best != nil {
		t.Errorf("Best cleared floor: %+v", best)
	}
	if best := tb.Best("completely unrelated documentation", 0.05); best == nil {
		t.Error("Best missed obvious match")
	}
}

func TestWithoutExamplesChangesRouting(t *testing.T) {
	build := func(examples bool) *Toolbox {
		tb := NewToolbox()
		if !examples {
			tb.WithoutExamples()
		}
		// Docstring alone is misleading; examples carry the signal.
		tb.MustRegister(testTool("tool_a", "Performs operation alpha on data.",
			"find the colorectal cancer papers"))
		tb.MustRegister(testTool("tool_b", "Performs operation beta on data.",
			"compute the average price"))
		return tb
	}
	utt := "find colorectal cancer papers"
	with := build(true).Route(utt)
	without := build(false).Route(utt)
	if with[0].Tool.Name != "tool_a" {
		t.Errorf("with examples routed to %s", with[0].Tool.Name)
	}
	if without[0].Similarity >= with[0].Similarity && with[0].Tool.Name != without[0].Tool.Name {
		t.Log("routing degraded without examples, as expected")
	}
	// Without examples the two tools are indistinguishable: similarity of
	// the winner must drop.
	if without[0].Similarity >= with[0].Similarity {
		t.Errorf("similarity without examples (%.3f) not lower than with (%.3f)",
			without[0].Similarity, with[0].Similarity)
	}
}

func TestRouteReindexesAfterChange(t *testing.T) {
	tb := NewToolbox()
	tb.MustRegister(testTool("load_dataset", "Register an input dataset from a local folder of files.",
		"load the papers from ./pdfs"))
	tb.MustRegister(testTool("filter_dataset", "Filter the dataset records with a natural language predicate.",
		"keep only papers about colorectal cancer"))
	utt := "show the papers dataset statistics"
	sims := func() map[string]float64 {
		out := map[string]float64{}
		for _, s := range tb.Route(utt) {
			out[s.Tool.Name] = s.Similarity
		}
		return out
	}
	before := sims()

	tb.MustRegister(testTool("show_statistics", "Show the statistics of the dataset papers.",
		"show the execution statistics"))
	after := sims()
	if top := tb.Route(utt)[0].Tool.Name; top != "show_statistics" {
		t.Fatalf("registered tool not routable: top = %s", top)
	}
	for _, name := range []string{"load_dataset", "filter_dataset"} {
		if before[name] == 0 || after[name] == before[name] {
			t.Errorf("%s similarity %v -> %v: the new docstring did not change the idf", name, before[name], after[name])
		}
	}

	withExamples := tb.Route(utt)[0].Similarity
	tb.WithoutExamples()
	if without := tb.Route(utt)[0].Similarity; without == withExamples {
		t.Errorf("WithoutExamples after Route kept the old index: similarity %v", without)
	}
}

func TestRouteConcurrent(t *testing.T) {
	build := func() *Toolbox {
		tb := NewToolbox()
		tb.MustRegister(testTool("alpha_tool", "Loads data from folders.", "load the folder ./data"))
		tb.MustRegister(testTool("beta_tool", "Filters records by conditions.", "keep only urgent tickets"))
		tb.MustRegister(testTool("gamma_tool", "Runs pipelines to completion.", "run the pipeline"))
		return tb
	}
	utts := []string{"load the folder ./x", "keep only urgent records", "run it to completion", "nothing matches"}
	want := map[string][]Score{}
	ref := build()
	for _, u := range utts {
		want[u] = ref.Route(u)
	}
	tb := build()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				u := utts[(g+i)%len(utts)]
				got := tb.Route(u)
				for k := range got {
					if got[k].Tool.Name != want[u][k].Tool.Name || got[k].Similarity != want[u][k].Similarity {
						t.Errorf("goroutine %d: Route(%q)[%d] = %s %v, want %s %v", g, u, k,
							got[k].Tool.Name, got[k].Similarity, want[u][k].Tool.Name, want[u][k].Similarity)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestAgentInvokeDirect(t *testing.T) {
	tb := NewToolbox()
	called := false
	tool := testTool("direct", "Direct tool.")
	tool.Run = func(env *Env, args map[string]any) (string, error) {
		called = true
		env.Set("ran", true)
		return "done", nil
	}
	tb.MustRegister(tool)
	ag, err := NewAgent(tb, NewEnv())
	if err != nil {
		t.Fatal(err)
	}
	step, err := ag.Invoke("direct", nil)
	if err != nil || !called || step.Observation != "done" {
		t.Fatalf("step = %+v, err = %v", step, err)
	}
	if v, _ := ag.Env().Get("ran"); v != true {
		t.Error("tool did not mutate env")
	}
	if _, err := ag.Invoke("missing", nil); err == nil {
		t.Error("missing tool accepted")
	}
	if len(ag.Trace()) != 1 {
		t.Errorf("trace = %d", len(ag.Trace()))
	}
}

func TestAgentHandleChainsTools(t *testing.T) {
	tb := NewToolbox()
	var order []string
	mk := func(name, doc string, trigger string) *Tool {
		tool := testTool(name, doc)
		tool.Extract = func(u string) (map[string]any, bool) {
			if strings.Contains(strings.ToLower(u), trigger) {
				return map[string]any{"seg": u}, true
			}
			return nil, false
		}
		tool.Run = func(env *Env, args map[string]any) (string, error) {
			order = append(order, name)
			return name + " ok", nil
		}
		return tool
	}
	tb.MustRegister(mk("filter_tool", "Filter records by a condition.", "filter"))
	tb.MustRegister(mk("extract_tool", "Extract structured fields from records.", "extract"))
	tb.MustRegister(mk("run_tool", "Run the pipeline.", "run"))

	ag, _ := NewAgent(tb, NewEnv())
	steps, err := ag.Handle("filter the papers about cancer, then extract the datasets and run the pipeline")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []string{"filter_tool", "extract_tool", "run_tool"}) {
		t.Fatalf("invocation order = %v", order)
	}
	if len(steps) != 3 {
		t.Fatalf("steps = %d", len(steps))
	}
	for _, s := range steps {
		if s.Thought == "" || s.Observation == "" {
			t.Errorf("incomplete ReAct step: %+v", s)
		}
	}
}

func TestAgentHandleErrorStopsChain(t *testing.T) {
	tb := NewToolbox()
	boom := testTool("boom_tool", "Always fails loudly.")
	boom.Extract = func(u string) (map[string]any, bool) { return nil, strings.Contains(u, "boom") }
	boom.Run = func(*Env, map[string]any) (string, error) { return "", fmt.Errorf("kaboom") }
	after := testTool("after_tool", "Runs after.")
	after.Extract = func(u string) (map[string]any, bool) { return nil, strings.Contains(u, "after") }
	tb.MustRegister(boom)
	tb.MustRegister(after)
	ag, _ := NewAgent(tb, NewEnv())
	steps, err := ag.Handle("boom; after")
	if err == nil {
		t.Fatal("chain error swallowed")
	}
	if len(steps) != 1 {
		t.Errorf("steps after failure = %d", len(steps))
	}
}

func TestAgentHandleNoMatch(t *testing.T) {
	tb := NewToolbox()
	tb.MustRegister(testTool("misc", "Totally different domain."))
	ag, _ := NewAgent(tb, NewEnv())
	ag.SimilarityFloor = 0.9
	steps, err := ag.Handle("pet the hamster")
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 || steps[0].Action != "none" {
		t.Fatalf("steps = %+v", steps)
	}
	if !strings.Contains(steps[0].Observation, "misc") {
		t.Error("fallback should list tools")
	}
}

func TestAgentValidation(t *testing.T) {
	if _, err := NewAgent(nil, NewEnv()); err == nil {
		t.Error("nil toolbox accepted")
	}
	if _, err := NewAgent(NewToolbox(), nil); err == nil {
		t.Error("nil env accepted")
	}
	ag, _ := NewAgent(NewToolbox(), NewEnv())
	if _, err := ag.Handle("   "); err == nil {
		t.Error("empty utterance accepted")
	}
}

func TestDecompose(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"run the pipeline", []string{"run the pipeline"}},
		{"filter papers; run it", []string{"filter papers", "run it"}},
		{"filter papers, then extract datasets", []string{"filter papers", "extract datasets"}},
		{
			"keep papers about gene mutation and tumor cells",
			[]string{"keep papers about gene mutation and tumor cells"},
		},
		{
			"filter for colorectal cancer and extract the datasets",
			[]string{"filter for colorectal cancer", "extract the datasets"},
		},
		{
			"filter for cancer and for these extract the datasets",
			[]string{"filter for cancer", "extract the datasets"},
		},
		{"", nil},
		{"  .  ", nil},
	}
	for _, c := range cases {
		if got := Decompose(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Decompose(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStepString(t *testing.T) {
	s := Step{Thought: "t", Action: "a", Args: map[string]any{"z": 1, "b": "x"}, Observation: "obs"}
	out := s.String()
	for _, want := range []string{"Thought: t", "Action: a(b=x, z=1)", "Observation: obs"} {
		if !strings.Contains(out, want) {
			t.Errorf("step string missing %q: %s", want, out)
		}
	}
	e := Step{Thought: "t", Action: "a", Err: fmt.Errorf("bad")}
	if !strings.Contains(e.String(), "ERROR: bad") {
		t.Error("error not rendered")
	}
}

func TestDocTextIncludesArgsAndExamples(t *testing.T) {
	tool := &Tool{
		Name: "create_schema", Doc: "Generate a new extraction schema.",
		Params:   []Param{{Name: "schema_name", Desc: "Name for the schema"}},
		Examples: []string{"create a schema called Author"},
		Run:      func(*Env, map[string]any) (string, error) { return "", nil },
	}
	with := tool.DocText(true)
	without := tool.DocText(false)
	if !strings.Contains(with, "schema_name") || !strings.Contains(with, "create a schema called Author") {
		t.Errorf("DocText(true) = %q", with)
	}
	if strings.Contains(without, "create a schema called Author") {
		t.Error("DocText(false) kept examples")
	}
}

func TestToolboxDescribe(t *testing.T) {
	tb := NewToolbox()
	tb.MustRegister(testTool("one_tool", "Does one thing. And more detail."))
	d := tb.Describe()
	if !strings.Contains(d, "one_tool — Does one thing.") {
		t.Errorf("Describe = %q", d)
	}
}

func TestMaxStepsBounds(t *testing.T) {
	tb := NewToolbox()
	n := 0
	tool := testTool("counter", "Counts invocations of itself.")
	tool.Extract = func(string) (map[string]any, bool) { return nil, true }
	tool.Run = func(*Env, map[string]any) (string, error) { n++; return "ok", nil }
	tb.MustRegister(tool)
	ag, _ := NewAgent(tb, NewEnv())
	ag.MaxSteps = 2
	if _, err := ag.Handle("a; b; c; d; e"); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("invocations = %d, want 2", n)
	}
}

// TestToolboxesShareIndex: toolboxes registering the same tools, as every
// chat session does, route through one shared index, and one whose
// routing text differs (examples dropped) gets its own.
func TestToolboxesShareIndex(t *testing.T) {
	build := func(examples bool) *Toolbox {
		tb := NewToolbox()
		if !examples {
			tb.WithoutExamples()
		}
		tb.MustRegister(testTool("share_load", "Loads data from shared folders.", "load the folder ./shared"))
		tb.MustRegister(testTool("share_filter", "Filters shared records by conditions.", "keep only shared tickets"))
		return tb
	}
	a, b, c := build(true), build(true), build(false)
	utt := "load the shared folder"
	var wg sync.WaitGroup
	for _, tb := range []*Toolbox{a, b, c, build(true), build(false)} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tb.Route(utt)
		}()
	}
	wg.Wait()
	if a.index == nil || a.index != b.index {
		t.Errorf("toolboxes with the same tools built separate indexes")
	}
	if c.index == a.index {
		t.Errorf("a toolbox without examples shares the index built with them")
	}
	ra, rb := a.Route(utt), b.Route(utt)
	for k := range ra {
		if ra[k].Tool.Name != rb[k].Tool.Name || ra[k].Similarity != rb[k].Similarity {
			t.Errorf("Route[%d]: %s %v, other toolbox %s %v", k,
				ra[k].Tool.Name, ra[k].Similarity, rb[k].Tool.Name, rb[k].Similarity)
		}
	}
}
