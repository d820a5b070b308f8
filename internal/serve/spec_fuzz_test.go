package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/workloads"
	"repro/pz"
)

// FuzzParseSpec: ParseSpec never panics; a spec it accepts re-marshals and
// re-parses to an equal spec; and Build against a small registered
// dataset returns a dataset or an error, never a panic.
func FuzzParseSpec(f *testing.F) {
	name := workloads.StreamSourceName
	tracks, err := filepath.Glob(filepath.Join("..", "..", "tracks", "*.json"))
	if err != nil || len(tracks) == 0 {
		f.Fatalf("no track files to seed from (%v)", err)
	}
	for _, path := range tracks {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var track struct {
			Datasets []struct {
				Ops json.RawMessage `json:"ops"`
			} `json:"datasets"`
		}
		if err := json.Unmarshal(data, &track); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		for _, d := range track.Datasets {
			f.Add([]byte(`{"dataset": {"name": "` + name + `"}, "ops": ` + string(d.Ops) + `}`))
		}
	}
	// A spec from before the divergence trigger became a constant still
	// parses; the field is ignored.
	legacy := []byte(`{"dataset": {"name": "` + name + `"}, "ops": [{"op": "filter", "predicate": "p"}], "reopt_after": 2, "reopt_divergence": 0.5}`)
	if _, err := ParseSpec(legacy); err != nil {
		f.Fatalf("spec carrying reopt_divergence rejected: %v", err)
	}
	f.Add(legacy)
	for _, s := range []string{
		``, `null`, `{}`, `[]`, `{"ops": null}`,
		`{"dataset": {"name": "` + name + `"}, "partitions": -1}`,
		`{"dataset": {"name": "` + name + `"}, "reopt_after": -3}`,
		`{"dataset": {"name": "` + name + `"}, "ops": [{"op": "retrieve", "k": 2}]}`,
		`{"dataset": {"name": "` + name + `"}, "policy": "cost-at-quality", "policy_param": 0.9, "ops": [
			{"op": "convert", "schema": "S", "fields": ["a", "b:int"], "descriptions": ["A", "B"], "cardinality": "one_to_many"},
			{"op": "project", "fields": ["a"]}, {"op": "distinct"}, {"op": "sort", "field": "a", "descending": true},
			{"op": "groupby", "keys": ["a"], "func": "count"}, {"op": "aggregate", "func": "sum", "field": "count"},
			{"op": "limit", "n": 3}, {"op": "retrieve", "query": "q", "k": 1}]}`,
	} {
		f.Add([]byte(s))
	}

	ctx, err := pz.NewContext(pz.Config{})
	if err != nil {
		f.Fatal(err)
	}
	recs, sc, err := workloads.StreamRecords(4)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := ctx.RegisterRecords(name, sc, recs); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := ParseSpec(enc)
		if err != nil {
			t.Fatalf("re-marshaled spec %s rejected: %v", enc, err)
		}
		if !reflect.DeepEqual(normalizeSpec(*s), normalizeSpec(*again)) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", *again, *s)
		}
		// The fuzzer must not register arbitrary paths from the input.
		s.Dataset.Dir, s.Dataset.File = "", ""
		if ds, err := s.Build(ctx); err == nil && ds == nil {
			t.Fatal("Build returned neither a dataset nor an error")
		}
	})
}

// normalizeSpec maps empty slices to nil: omitempty drops them on
// marshal, so they come back nil and mean the same spec.
func normalizeSpec(s Spec) Spec {
	if len(s.Ops) == 0 {
		s.Ops = nil
		return s
	}
	ops := make([]OpSpec, len(s.Ops))
	for i, op := range s.Ops {
		for _, f := range []*[]string{&op.Fields, &op.Descriptions, &op.Keys} {
			if len(*f) == 0 {
				*f = nil
			}
		}
		ops[i] = op
	}
	s.Ops = ops
	return s
}
