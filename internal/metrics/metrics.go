// Package metrics scores pipeline outputs against the synthetic corpus
// ground truth: filter classification quality (precision/recall/F1 against
// gold labels) and extraction quality (entity-level matching against
// ground-truth mentions). Experiments use it to show that the optimizer's
// quality estimates order plans the same way measured F1 does.
package metrics

import (
	"fmt"
	"strings"

	"repro/internal/corpus"
	"repro/internal/llm"
	"repro/internal/record"
)

// PRF is a precision/recall/F1 triple.
type PRF struct {
	Precision float64
	Recall    float64
	F1        float64
	// TP, FP, FN are the raw counts behind the rates.
	TP, FP, FN int
}

// String renders the triple compactly.
func (m PRF) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d)",
		m.Precision, m.Recall, m.F1, m.TP, m.FP, m.FN)
}

func prf(tp, fp, fn int) PRF {
	m := PRF{TP: tp, FP: fp, FN: fn}
	if tp+fp > 0 {
		m.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		m.Recall = float64(tp) / float64(tp+fn)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// FilterQuality scores a filter's kept set against gold labels: inputs are
// all records that entered the filter, kept the subset it retained, and
// predicate the natural-language condition. Records without ground truth
// are skipped. Truths are read in whichever form the records hold them
// (see corpus.Truth); no map is built.
func FilterQuality(inputs, kept []*record.Record, predicate string) PRF {
	keptSet := make(map[int64]bool, len(kept))
	for _, r := range kept {
		keptSet[r.ID()] = true
	}
	var tp, fp, fn int
	for _, r := range inputs {
		truth := corpus.RecordTruth(r)
		if truth == nil {
			continue
		}
		gold := llm.GoldFilterDecision(truth, predicate)
		got := keptSet[r.ID()]
		switch {
		case gold && got:
			tp++
		case !gold && got:
			fp++
		case gold && !got:
			fn++
		}
	}
	return prf(tp, fp, fn)
}

// FilterQualityByTruth scores a filter stage through any downstream
// stage's outputs: outputs are matched back to inputs by the content of
// their carried ground-truth annotation (which Derive preserves across
// Convert and friends), so callers can score a mid-pipeline filter off
// the pipeline's final records without re-running the filter alone.
// Content matching — unlike ExtractionQuality's pointer matching — also
// survives file-backed sources, whose repeated reads deserialize fresh
// Truth values, and compares a packed truth with the same truth in maps.
// Inputs without ground truth are skipped.
//
// Precondition: each document's Truth content must be unique within the
// corpus (true for every generated domain, whose truths carry per-doc
// identifiers). Documents sharing identical truth collapse to one
// tp/fp/fn observation, so hand-made corpora with degenerate truths
// (e.g. bare labels) score meaninglessly here — use FilterQuality over
// the filter's own kept set instead.
func FilterQualityByTruth(inputs, outputs []*record.Record, predicate string) PRF {
	score := NewTruthScore(outputs, predicate)
	for _, r := range inputs {
		score.Add(r)
	}
	return score.PRF()
}

// TruthScore is FilterQualityByTruth over inputs read one at a time, as a
// scan yields them: it holds the truth keys of the outputs and of the
// gold inputs the filter missed, never the inputs themselves.
type TruthScore struct {
	predicate string
	// kept maps each output's truth key to whether an input with that
	// key has been scored; missed holds the keys of scored gold inputs
	// that no output kept.
	kept       map[string]bool
	missed     map[string]bool
	tp, fp, fn int
}

// NewTruthScore starts scoring the filter stage behind outputs.
func NewTruthScore(outputs []*record.Record, predicate string) *TruthScore {
	s := &TruthScore{predicate: predicate, kept: make(map[string]bool, len(outputs)), missed: map[string]bool{}}
	for _, r := range outputs {
		if truth := corpus.RecordTruth(r); truth != nil {
			s.kept[truthKey(truth)] = false
		}
	}
	return s
}

// Add scores one input. An input without ground truth, or with the
// truth of one scored before, adds nothing.
func (s *TruthScore) Add(input *record.Record) {
	truth := corpus.RecordTruth(input)
	if truth == nil {
		return
	}
	key := truthKey(truth)
	scored, got := s.kept[key]
	if scored || s.missed[key] {
		return
	}
	gold := llm.GoldFilterDecision(truth, s.predicate)
	switch {
	case got:
		s.kept[key] = true
		if gold {
			s.tp++
		} else {
			s.fp++
		}
	case gold:
		s.missed[key] = true
		s.fn++
	}
}

// PRF returns the score of the inputs added so far.
func (s *TruthScore) PRF() PRF { return prf(s.tp, s.fp, s.fn) }

// truthKey canonically serializes a ground-truth annotation so equal
// truths compare equal across deserializations and forms: the corpus
// writer's rendering, which a packed truth already is.
func truthKey(t *corpus.Truth) string {
	if s, ok := t.Canonical(); ok {
		return s
	}
	return fmt.Sprintf("%v", t) // a NaN or infinite number
}

// ExtractionQuality scores extracted records against ground-truth mentions
// of the given kind. An extraction matches a mention when, for every field
// both sides populate, the values agree (after trimming); matching is
// greedy per source record via lineage-free filename pairing: each output
// record's parent truth is read directly from the record's carried
// annotations.
func ExtractionQuality(sources, outputs []*record.Record, kind string) PRF {
	// Gold entities per source, keyed by the source's truth slot, which
	// Derive copies to every record derived from it.
	type ent struct {
		fields  corpus.FieldsView
		matched bool
	}
	goldByTruth := map[*corpus.Truth][]*ent{}
	var totalGold int
	for _, s := range sources {
		truth := corpus.RecordTruth(s)
		if truth == nil {
			continue
		}
		if _, done := goldByTruth[truth]; done {
			continue
		}
		truth.View().EachMention(func(k string, fields corpus.FieldsView) bool {
			if k == kind {
				goldByTruth[truth] = append(goldByTruth[truth], &ent{fields: fields})
				totalGold++
			}
			return true
		})
	}
	var tp, fp int
	for _, out := range outputs {
		truth := corpus.RecordTruth(out)
		matched := false
		if truth != nil {
			for _, g := range goldByTruth[truth] {
				if !g.matched && extractionMatches(out, g.fields) {
					g.matched = true
					matched = true
					break
				}
			}
		}
		if matched {
			tp++
		} else {
			fp++
		}
	}
	fn := totalGold - tp
	return prf(tp, fp, fn)
}

// extractionMatches reports whether the record's populated fields agree
// with the gold entity's fields on every attribute both sides know.
func extractionMatches(r *record.Record, gold corpus.FieldsView) bool {
	compared := 0
	for _, f := range r.Schema().Fields() {
		got := strings.TrimSpace(r.GetString(f.Name))
		if got == "" {
			continue
		}
		want, ok := matchGoldKey(f.Name, gold)
		if !ok {
			continue
		}
		compared++
		if got != strings.TrimSpace(want) {
			return false
		}
	}
	return compared > 0
}

// matchGoldKey resolves a record field name against gold entity fields
// (exact, then substring containment either way).
func matchGoldKey(name string, gold corpus.FieldsView) (string, bool) {
	if v, ok := gold.Get(name); ok {
		return v, true
	}
	bestKey, best, found := "", "", false
	gold.Each(func(k, v string) bool {
		if k != "" && (strings.Contains(name, k) || strings.Contains(k, name)) && (!found || k < bestKey) {
			bestKey, best, found = k, v, true
		}
		return true
	})
	return best, found
}

// FieldAccuracy measures per-field scalar extraction accuracy: for each
// output record whose truth declares the gold field, it checks the record's
// value. Returns fraction correct and the number of comparable records.
func FieldAccuracy(outputs []*record.Record, recordField, goldField string) (float64, int) {
	correct, total := 0, 0
	for _, r := range outputs {
		truth := corpus.RecordTruth(r)
		if truth == nil {
			continue
		}
		v := truth.View()
		want, ok := v.Fields().Get(goldField)
		if !ok {
			if n, nok := v.Number(goldField); nok {
				want, ok = fmt.Sprintf("%g", n), true
				// Integer-rendered numbers also count.
				if r.GetString(recordField) == fmt.Sprintf("%d", int64(n)) {
					correct++
					total++
					continue
				}
			}
		}
		if !ok {
			continue
		}
		total++
		if strings.TrimSpace(r.GetString(recordField)) == strings.TrimSpace(want) {
			correct++
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(correct) / float64(total), total
}
