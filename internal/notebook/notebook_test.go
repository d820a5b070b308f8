package notebook

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestAddAndCells(t *testing.T) {
	nb := New()
	u := nb.AddChatUser("load my papers")
	a := nb.AddChatAgent("loaded 11 papers")
	c := nb.AddCode("dataset = pz.Dataset(...)")
	m := nb.AddChatAgent("notes")
	if nb.Len() != 4 {
		t.Fatalf("Len = %d", nb.Len())
	}
	ids := []int{u, a, c, m}
	if !reflect.DeepEqual(ids, []int{1, 2, 3, 4}) {
		t.Errorf("ids = %v", ids)
	}
	cell, err := nb.Cell(c)
	if err != nil || cell.Type != Code {
		t.Errorf("Cell = %+v, %v", cell, err)
	}
	if _, err := nb.Cell(99); err == nil {
		t.Error("missing cell accepted")
	}
}

func TestSetOutput(t *testing.T) {
	nb := New()
	c1 := nb.AddCode("print(1)")
	c2 := nb.AddCode("print(2)")
	if err := nb.SetOutput(c2, "2"); err != nil {
		t.Fatal(err)
	}
	if err := nb.SetOutput(c1, "1"); err != nil {
		t.Fatal(err)
	}
	a, _ := nb.Cell(c1)
	b, _ := nb.Cell(c2)
	if b.ExecutionCount != 1 || a.ExecutionCount != 2 {
		t.Errorf("execution counts = %d, %d", a.ExecutionCount, b.ExecutionCount)
	}
	chat := nb.AddChatUser("x")
	if err := nb.SetOutput(chat, "nope"); err == nil {
		t.Error("output on a chat cell accepted")
	}
	if err := nb.SetOutput(123, "x"); err == nil {
		t.Error("output on missing cell accepted")
	}
}

func TestSnapshotRestore(t *testing.T) {
	nb := New()
	nb.AddChatUser("first")
	idx := nb.Snapshot("before-filter")
	nb.AddChatUser("second")
	nb.AddCode("filter(...)")
	if nb.Len() != 3 {
		t.Fatalf("Len = %d", nb.Len())
	}
	if err := nb.Restore(idx); err != nil {
		t.Fatal(err)
	}
	if nb.Len() != 1 {
		t.Fatalf("after restore Len = %d", nb.Len())
	}
	// New cells after restore get fresh ids consistent with the snapshot.
	id := nb.AddChatUser("redo")
	if id != 2 {
		t.Errorf("post-restore id = %d, want 2", id)
	}
	if err := nb.Restore(99); err == nil {
		t.Error("bad snapshot index accepted")
	}
	if got := nb.Snapshots(); !reflect.DeepEqual(got, []string{"before-filter"}) {
		t.Errorf("Snapshots = %v", got)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	nb := New()
	c := nb.AddCode("x")
	nb.Snapshot("s0")
	_ = nb.SetOutput(c, "mutated-after-snapshot")
	if err := nb.Restore(0); err != nil {
		t.Fatal(err)
	}
	cell, _ := nb.Cell(c)
	if cell.Output != "" {
		t.Errorf("snapshot captured later mutation: %q", cell.Output)
	}
}

func TestExportJSON(t *testing.T) {
	nb := New()
	nb.AddChatUser("hello")
	nb.AddChatAgent("hi, I loaded the dataset")
	code := nb.AddCode("dataset = pz.Dataset(source=\"demo\")\noutput = dataset")
	_ = nb.SetOutput(code, "11 records")
	data, err := nb.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc["nbformat"] != float64(4) {
		t.Errorf("nbformat = %v", doc["nbformat"])
	}
	cells := doc["cells"].([]any)
	if len(cells) != 3 {
		t.Fatalf("cells = %d", len(cells))
	}
	first := cells[0].(map[string]any)
	if first["cell_type"] != "markdown" {
		t.Errorf("chat exported as %v", first["cell_type"])
	}
	src := first["source"].([]any)[0].(string)
	if !strings.Contains(src, "**User:** hello") {
		t.Errorf("source = %q", src)
	}
	codeCell := cells[2].(map[string]any)
	if codeCell["cell_type"] != "code" || codeCell["execution_count"] != float64(1) {
		t.Errorf("code cell = %v", codeCell)
	}
}

func TestRender(t *testing.T) {
	nb := New()
	nb.AddChatUser("query")
	c := nb.AddCode("line1\nline2")
	_ = nb.SetOutput(c, "result")
	out := nb.Render()
	for _, want := range []string{"user> query", "code:", "line1", "out[1]:", "result"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCellsIsCopy(t *testing.T) {
	nb := New()
	nb.AddChatUser("original")
	cells := nb.Cells()
	cells[0].Source = "mutated"
	got, _ := nb.Cell(1)
	if got.Source != "original" {
		t.Error("Cells exposed internal state")
	}
}

func TestSplitLines(t *testing.T) {
	if got := splitLines(""); got != nil {
		t.Errorf("splitLines(empty) = %v", got)
	}
	got := splitLines("a\nb")
	if !reflect.DeepEqual(got, []string{"a\n", "b"}) {
		t.Errorf("splitLines = %q", got)
	}
	got = splitLines("a\n")
	if !reflect.DeepEqual(got, []string{"a\n"}) {
		t.Errorf("splitLines trailing = %q", got)
	}
}
