package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/palimpchat"
	"repro/pz"
)

// chatSessions is the chat_sessions workload: one closed-loop client runs
// fresh palimpchat.Sessions through a scripted conversation over one of
// the paper's three demo scenarios — load, compound filter+extract, set
// policy, run, statistics, show records, generate code, export notebook.
// An op is one Session.Chat turn.
type chatSessions struct {
	cfg config
	ops int

	scenarios []*scenario
	variants  []*chatVariant
	// order is the seeded session sequence; each entry names a variant.
	order []*chatVariant
	tally tally

	session *palimpchat.Session
	before  int
	reply   string
}

// scenario is one demo corpus materialized as a folder.
type scenario struct {
	name string
	dir  string
	docs []*corpus.Doc
	// load and builds are the scenario's load utterance and its
	// compound filter+extract phrasings.
	load   string
	builds []string
	// predicate is the filter condition the build phrasings extract.
	predicate string
	inputs    []*pz.Record
}

// chatVariant is one (scenario, build phrasing, policy) conversation with
// its reference run, made in set-up.
type chatVariant struct {
	sc     *scenario
	turns  []chatTurn
	digest [sha256.Size]byte
	count  int
	f1     float64
}

// chatTurn is one utterance, its op class and the tool actions it must
// trigger.
type chatTurn struct {
	class     string
	utterance string
	actions   []string
}

// chatPolicies are the policy turns a variant picks from.
var chatPolicies = []string{
	"optimize for maximum quality",
	"minimize the cost no matter the quality",
	"maximize quality while staying under $0.50",
}

const turnsPerSession = 8

func newChatSessions(cfg config) *chatSessions {
	return &chatSessions{cfg: cfg}
}

// chatScenarios builds the three demo scenarios: the paper's 11 biomed
// papers, and seeded legal and real-estate corpora of n docs.
func chatScenarios(seed int64, n int) []*scenario {
	return []*scenario{
		{
			name: "biomed", docs: corpus.GenerateBiomed(corpus.PaperDemoBiomed()),
			load: "load the papers from %s as sigmod-demo",
			builds: []string{
				"I am interested in papers about colorectal cancer and for these extract the dataset name, description and url",
				"filter for papers about colorectal cancer and extract the dataset name, description and url",
			},
			predicate: "The papers are about colorectal cancer",
		},
		{
			name: "legal", docs: corpus.GenerateLegal(corpus.LegalConfig{NumContracts: max(n, 6), IndemnificationRate: 0.4, Seed: seed}),
			load: "register the folder \"%s\" as legal",
			builds: []string{
				"keep only contracts that contain an indemnification clause and pull out the party_a, party_b and effective_date",
				"I am interested in contracts with an indemnification clause and for these extract the party_a, party_b and effective_date",
			},
			predicate: "The contract contains an indemnification clause",
		},
		{
			name: "realestate", docs: corpus.GenerateRealEstate(corpus.RealEstateConfig{NumListings: max(n, 6), ModernRate: 0.35, Seed: seed}),
			load: "use the folder %s as the input dataset",
			builds: []string{
				"I am interested in listings with a modern renovated interior and extract the neighborhood, price and bedrooms",
				"keep only listings with a modern, recently renovated interior and pull out the neighborhood, price and bedrooms",
			},
			predicate: "The listing has a modern, recently renovated interior",
		},
	}
}

// variant scripts one conversation over the scenario's folder.
func (sc *scenario) variant(build, policy string) *chatVariant {
	return &chatVariant{sc: sc, turns: []chatTurn{
		{"load", fmt.Sprintf(sc.load, sc.dir), []string{"load_dataset"}},
		{"build", build, []string{"filter_dataset", "convert_dataset"}},
		{"build", policy, []string{"set_policy"}},
		{"run", "run the pipeline", []string{"execute_pipeline"}},
		{"report", "show the execution statistics", []string{"show_statistics"}},
		{"report", "show me the extracted records", []string{"show_records"}},
		{"codegen", "generate the final code", []string{"generate_code"}},
		{"codegen", "download the notebook", []string{"export_notebook"}},
	}}
}

func (w *chatSessions) setup(dir string) error {
	w.scenarios = chatScenarios(w.cfg.seed, w.cfg.scaled(40, 6))
	w.variants = nil
	for _, sc := range w.scenarios {
		sc.dir = filepath.Join(dir, sc.name)
		src, err := dataset.MaterializeCorpus(sc.name, sc.dir, sc.docs)
		if err != nil {
			return err
		}
		if sc.inputs, err = src.Records(); err != nil {
			return err
		}
		for _, build := range sc.builds {
			for _, policy := range chatPolicies {
				v := sc.variant(build, policy)
				if err := v.reference(); err != nil {
					return err
				}
				w.variants = append(w.variants, v)
			}
		}
	}
	// Every run holds whole rounds of all variants, in seeded order, so the
	// mix is the same for every seed.
	rng := rand.New(rand.NewSource(w.cfg.seed))
	perRound := len(w.variants) * turnsPerSession
	rounds := (w.cfg.opsFor(330, perRound) + perRound - 1) / perRound
	w.order = nil
	for r := 0; r < rounds; r++ {
		for _, k := range rng.Perm(len(w.variants)) {
			w.order = append(w.order, w.variants[k])
		}
	}
	w.ops = len(w.order) * turnsPerSession
	return nil
}

func newChatSession() (*palimpchat.Session, error) {
	return palimpchat.NewSession(palimpchat.Options{Config: pz.Config{Parallelism: runtime.NumCPU()}})
}

// reference runs the variant's conversation once, checks every turn's
// actions, and keeps the run's output digest and filter F1.
func (v *chatVariant) reference() error {
	s, err := newChatSession()
	if err != nil {
		return err
	}
	for _, t := range v.turns {
		before := len(s.Steps())
		if _, err := s.Chat(t.utterance); err != nil {
			return fmt.Errorf("%s reference turn %q: %w", v.sc.name, t.utterance, err)
		}
		if err := checkActions(s, before, t); err != nil {
			return err
		}
	}
	res := s.LastResult()
	if res == nil || len(res.Records) == 0 {
		return fmt.Errorf("%s reference run produced no records", v.sc.name)
	}
	v.digest, v.count = digestRecords(res.Records), len(res.Records)
	v.f1 = metrics.FilterQualityByTruth(v.sc.inputs, res.Records, v.sc.predicate).F1
	if v.sc.name == "biomed" && strings.Contains(v.turns[2].utterance, "maximum quality") && v.count != 6 {
		return fmt.Errorf("biomed max-quality run extracted %d datasets, the paper reports 6", v.count)
	}
	return nil
}

// checkActions compares the tool actions a turn triggered with the
// script's.
func checkActions(s *palimpchat.Session, before int, t chatTurn) error {
	steps := s.Steps()[before:]
	got := make([]string, len(steps))
	for i, st := range steps {
		got[i] = st.Action
		if st.Err != nil {
			return fmt.Errorf("turn %q: %s failed: %w", t.utterance, st.Action, st.Err)
		}
	}
	if strings.Join(got, ",") != strings.Join(t.actions, ",") {
		return fmt.Errorf("turn %q triggered %v, want %v", t.utterance, got, t.actions)
	}
	return nil
}

func (w *chatSessions) clients() int { return 1 }
func (w *chatSessions) numOps() int  { return w.ops }

func (w *chatSessions) do(i int) opStat {
	v, t := w.order[i/turnsPerSession], i%turnsPerSession
	turn := v.turns[t]
	st := opStat{class: turn.class}
	if t == 0 {
		// A conversation starts with a fresh session.
		s, err := newChatSession()
		if err != nil {
			st.err = err
			return st
		}
		w.session = s
	}
	w.before = len(w.session.Steps())
	w.reply, st.err = w.session.Chat(turn.utterance)
	if turn.class == "run" && st.err == nil {
		res := w.session.LastResult()
		st.docs, st.usd, st.sim = len(v.sc.docs), res.CostUSD, res.Elapsed
	}
	return st
}

func (w *chatSessions) check(i int, st *opStat) {
	if st.err != nil {
		return
	}
	v, t := w.order[i/turnsPerSession], i%turnsPerSession
	turn := v.turns[t]
	if err := checkActions(w.session, w.before, turn); err != nil {
		st.err = err
		return
	}
	switch turn.class {
	case "run":
		res := w.session.LastResult()
		if got := scannedDocs(res.Trace); got != len(v.sc.docs) {
			st.err = fmt.Errorf("%s run scanned %d docs, want %d", v.sc.name, got, len(v.sc.docs))
			return
		}
		if digestRecords(res.Records) != v.digest || len(res.Records) != v.count {
			st.err = fmt.Errorf("%s run output (%d records) differs from the set-up reference (%d)",
				v.sc.name, len(res.Records), v.count)
			return
		}
		st.f1, st.hasF1 = v.f1, true
		// Executing a folder dataset reads its files.
		w.tally.dirLoads++
		w.tally.optimizes++
		w.tally.calls += traceCalls(res.Trace)
	case "codegen":
		if !strings.Contains(w.reply, "dataset.filter(") && !strings.Contains(w.reply, "cells") {
			st.err = fmt.Errorf("turn %q: unexpected reply %.200q", turn.utterance, w.reply)
			return
		}
	}
	w.tally.turns++
	st.ok = true
}

func (w *chatSessions) layers(dir string) (*layerInputs, error) {
	sc := w.scenarios[0]
	ndjson, folder, gen, err := docsInputs(dir, corpus.DomainBiomed, sc.docs)
	if err != nil {
		return nil, err
	}
	spec := serve.Spec{Dataset: serve.DatasetSpec{Name: "data"}, Policy: "max-quality", Ops: []serve.OpSpec{
		{Op: "filter", Predicate: sc.predicate},
		{Op: "convert", Schema: "ClinicalData", Doc: "Clinical datasets mentioned in a paper.",
			Fields: []string{"name", "description", "url"}, Cardinality: "one_to_many"},
	}}
	return &layerInputs{corpus: ndjson, gen: gen, dir: folder, spec: spec, chat: w.variants, tally: w.tally}, nil
}

func (w *chatSessions) sizes() map[string]int {
	out := map[string]int{"ops": w.ops, "sessions": len(w.order), "turns_per_session": turnsPerSession}
	for _, sc := range w.scenarios {
		out[sc.name+"_docs"] = len(sc.docs)
	}
	return out
}

func (w *chatSessions) close() {}
