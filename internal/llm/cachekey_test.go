package llm_test

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/llm"
	"repro/internal/ops"
	"repro/internal/record"
	"repro/internal/schema"
	"repro/internal/workloads"
	"repro/pz"
)

// joinedCacheKey is the cache key as it was before it became a struct:
// the request's identity fields joined into one string.
func joinedCacheKey(req llm.Request) string {
	fields := make([]string, len(req.Fields))
	for i, f := range req.Fields {
		fields[i] = f.Name + ":" + f.Type.String()
	}
	sort.Strings(fields)
	h := fnv.New64a()
	_, _ = h.Write([]byte(req.Record.Text()))
	return strings.Join([]string{
		req.Model,
		req.Task.String(),
		req.Predicate,
		strings.Join(fields, ","),
		fmt.Sprint(req.OneToMany),
		fmt.Sprintf("%.3f", req.QualityBoost),
		fmt.Sprintf("%x", h.Sum64()),
	}, "|")
}

// keyedOps collects the filter predicates and convert targets of the demo
// chains and of every track.
func keyedOps(t *testing.T) (predicates []string, converts []*ops.Convert) {
	t.Helper()
	_, ds, _, err := experiments.BiomedContext(pz.Config{})
	if err != nil {
		t.Fatal(err)
	}
	chains := [][]ops.Logical{experiments.DemoPipeline(ds).Chain()}
	src, err := dataset.NewDocsSource("tickets", schema.TextFile, corpus.GenerateSupport(corpus.SupportConfig{NumTickets: 1, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func(dataset.Source) ([]ops.Logical, error){workloads.SupportTriageChain, workloads.FinanceExtractChain} {
		chain, err := build(src)
		if err != nil {
			t.Fatal(err)
		}
		chains = append(chains, chain)
	}
	stream, err := workloads.StreamChain(4)
	if err != nil {
		t.Fatal(err)
	}
	chains = append(chains, stream)
	for _, chain := range chains {
		for _, op := range chain {
			switch o := op.(type) {
			case *ops.Filter:
				if o.UDF == nil {
					predicates = append(predicates, o.Predicate)
				}
			case *ops.Convert:
				converts = append(converts, o)
			}
		}
	}
	paths, err := filepath.Glob("../../tracks/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no tracks found: %v", err)
	}
	for _, p := range paths {
		tr, _, err := bench.LoadTrack(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range tr.Datasets {
			for _, op := range d.Ops {
				switch op.Op {
				case "filter":
					predicates = append(predicates, op.Predicate)
				case "convert":
					target, err := schema.Derive(op.Schema, op.Doc, op.Fields, op.Descriptions)
					if err != nil {
						t.Fatal(err)
					}
					converts = append(converts, &ops.Convert{Target: target, Card: ops.OneToOne})
				}
			}
		}
	}
	return predicates, converts
}

// TestCacheKeyMatchesJoinedKey: over every request the demo chains and
// tracks send — each completion model, records from every domain plus
// content-equal clones, filters, bonded and field-at-a-time converts with
// fields in either order — two requests get equal struct keys exactly when
// their joined string keys are equal.
func TestCacheKeyMatchesJoinedKey(t *testing.T) {
	predicates, converts := keyedOps(t)
	var recs []*record.Record
	for _, d := range corpus.Domains() {
		g, err := corpus.NewGenerator(d.Name, 3, -1, 5)
		if err != nil {
			t.Fatal(err)
		}
		docs, err := corpus.Collect(g)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := corpus.Records(docs, schema.TextFile, d.Name)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rs...)
	}
	recs = append(recs, recs[0].Clone(), recs[len(recs)-1].Clone())

	var reqs []llm.Request
	for _, card := range llm.CompletionModels() {
		for _, r := range recs {
			for _, p := range predicates {
				reqs = append(reqs, ops.FilterRequest(card.Name, p, r))
			}
			for _, c := range converts {
				fields := c.Target.Fields()
				reversed := make([]schema.Field, len(fields))
				for i, f := range fields {
					reversed[len(fields)-1-i] = f
				}
				oneToMany := c.Card == ops.OneToMany
				for _, fs := range [][]schema.Field{fields, reversed} {
					reqs = append(reqs, llm.Request{Model: card.Name, Task: llm.TaskExtract, Record: r, Fields: fs, OneToMany: oneToMany})
				}
				for i := range fields {
					reqs = append(reqs, llm.Request{Model: card.Name, Task: llm.TaskExtract, Record: r,
						Fields: fields[i : i+1], OneToMany: oneToMany, QualityBoost: ops.FieldwiseQualityBonus})
				}
			}
		}
	}
	byJoined := map[string]any{}
	byStruct := map[any]string{}
	for _, req := range reqs {
		joined, key := joinedCacheKey(req), llm.CacheKeyOf(req)
		if k, ok := byJoined[joined]; ok && k != key {
			t.Fatalf("joined key %q maps to two struct keys %+v and %+v", joined, k, key)
		}
		if j, ok := byStruct[key]; ok && j != joined {
			t.Fatalf("struct key %+v maps to two joined keys %q and %q", key, j, joined)
		}
		byJoined[joined], byStruct[key] = key, joined
	}
	if len(byJoined) == len(reqs) {
		t.Fatalf("all %d requests were distinct; the clones and reversed fields should collide", len(reqs))
	}
	t.Logf("%d requests, %d distinct keys", len(reqs), len(byJoined))
}
