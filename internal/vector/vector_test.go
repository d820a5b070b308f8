package vector

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestExactBasics(t *testing.T) {
	items := []Item{
		{ID: 1, Vec: []float64{1, 0, 0, 0}},
		{ID: 2, Vec: []float64{0, 1, 0, 0}},
		{ID: 3, Vec: []float64{0.9, 0.1, 0, 0}},
	}
	hits := TopK(items, []float64{1, 0, 0, 0}, 2)
	if len(hits) != 2 || hits[0].ID != 1 || hits[1].ID != 3 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestExactDimMismatch(t *testing.T) {
	items := []Item{{ID: 1, Vec: []float64{1, 2}}, {ID: 2, Vec: []float64{1, 2, 3}}}
	hits := TopK(items, []float64{1, 2, 3}, 2)
	if len(hits) != 1 || hits[0].ID != 2 {
		t.Fatalf("mismatched dimension scored: %v", hits)
	}
}

func TestExactKEdgeCases(t *testing.T) {
	items := []Item{{ID: 1, Vec: []float64{1, 0}}}
	if got := TopK(items, []float64{1, 0}, 0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	if got := TopK(items, []float64{1, 0}, 10); len(got) != 1 {
		t.Errorf("k>n returned %d hits", len(got))
	}
	if got := TopK(nil, []float64{1, 0}, 3); got != nil {
		t.Errorf("no items returned %v", got)
	}
}

func TestExactTieBreaksByID(t *testing.T) {
	var items []Item
	for id := int64(5); id >= 1; id-- {
		items = append(items, Item{ID: id, Vec: []float64{1, 0}})
	}
	hits := TopK(items, []float64{1, 0}, 3)
	if hits[0].ID != 1 || hits[1].ID != 2 || hits[2].ID != 3 {
		t.Fatalf("tie-break order wrong: %v", hits)
	}
}

func TestExactOrderingSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{ID: int64(i), Vec: randVec(rng, 8)}
	}
	q := randVec(rng, 8)
	hits := TopK(items, q, 10)
	if !sort.SliceIsSorted(hits, func(i, j int) bool { return hits[i].Score >= hits[j].Score }) {
		t.Fatalf("hits not sorted: %v", hits)
	}
}

func TestCosineProperties(t *testing.T) {
	f := func(ai, bi []int16) bool {
		n := len(ai)
		if len(bi) < n {
			n = len(bi)
		}
		a, b := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i] = float64(ai[i]), float64(bi[i])
		}
		c := Cosine(a, b)
		return !math.IsNaN(c) && c <= 1+1e-9 && c >= -1-1e-9 && math.Abs(c-Cosine(b, a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCosineZeroVector(t *testing.T) {
	if got := Cosine([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Errorf("zero-vector cosine = %v", got)
	}
}
