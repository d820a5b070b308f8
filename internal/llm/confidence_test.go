package llm

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/record"
	"repro/internal/schema"
)

// TestFilterConfidenceCalibration checks the contract the cascade's verify
// tier depends on: filter responses carry a confidence in [0,1); correct
// answers always score at least 0.5; wrong answers score below 0.55 (so a
// 0.5 threshold escalates the vast majority of mistakes); and the gold
// model (atlas-large) is always fully in the confident band.
func TestFilterConfidenceCalibration(t *testing.T) {
	svc := NewService()
	sch := schema.TextFile
	pred := "The ticket is urgent and needs immediate attention"

	for _, model := range []string{"atlas-large", "atlas-medium", "atlas-small", "pigeon-7b"} {
		var wrongHigh, n int
		for i := 0; i < 400; i++ {
			urgent := i%3 == 0
			truth := &corpus.Truth{Labels: map[string]bool{"urgent": urgent}}
			r, err := record.New(sch, map[string]any{
				"filename": fmt.Sprintf("t%d.txt", i),
				"contents": fmt.Sprintf("ticket %d about database outages and billing", i),
			})
			if err != nil {
				t.Fatal(err)
			}
			r.SetTruth(truth)
			resp, err := svc.Complete(Request{
				Model: model, Task: TaskFilter,
				Record:    r,
				Predicate: pred,
			})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Confidence < 0 || resp.Confidence >= 1 {
				t.Fatalf("%s: confidence %v outside [0,1)", model, resp.Confidence)
			}
			correct := resp.Decision == GoldFilterDecision(truth, pred)
			if correct && resp.Confidence < 0.5 {
				t.Fatalf("%s: correct answer with confidence %v < 0.5", model, resp.Confidence)
			}
			if !correct {
				if resp.Confidence >= 0.55 {
					t.Fatalf("%s: wrong answer with confidence %v >= 0.55", model, resp.Confidence)
				}
				if resp.Confidence >= 0.5 {
					wrongHigh++
				}
				n++
			}
		}
		if model == "atlas-large" && n != 0 {
			t.Fatalf("atlas-large made %d filter mistakes; its quality tier should be gold", n)
		}
		// The overconfident-wrong tail must be a small minority of
		// mistakes, or the verify tier couldn't work at all.
		if n > 0 && wrongHigh*4 > n {
			t.Fatalf("%s: %d/%d mistakes were confident — tail too fat", model, wrongHigh, n)
		}
	}
}
