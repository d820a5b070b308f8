// Package vector is the exact vector kernel behind the Retrieve operator
// and the cascade prefilter (the paper's intro cites vector databases as
// one of the software stacks AI pipelines must coordinate): cosine
// similarity and a linear-scan top-k.
package vector

import (
	"container/heap"
	"math"
)

// Item is one scored element: an opaque ID and its embedding.
type Item struct {
	ID  int64
	Vec []float64
}

// Hit is one search result.
type Hit struct {
	ID    int64
	Score float64
}

// Cosine is the cosine similarity of two equal-length vectors (0 when either
// is zero).
func Cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// hitHeap is a min-heap on (score, -id): the root is the worst retained hit.
type hitHeap []Hit

func (h hitHeap) Len() int { return len(h) }
func (h hitHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].ID > h[j].ID
}
func (h hitHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *hitHeap) Push(x any)   { *h = append(*h, x.(Hit)) }
func (h *hitHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// TopK returns the k items most cosine-similar to query, best-first, by
// exact linear scan. Ties break by ascending ID for determinism; items
// whose dimension differs from the query's are skipped.
func TopK(items []Item, query []float64, k int) []Hit {
	if k <= 0 || len(items) == 0 {
		return nil
	}
	h := &hitHeap{}
	for _, it := range items {
		if len(it.Vec) != len(query) {
			continue
		}
		hit := Hit{ID: it.ID, Score: Cosine(query, it.Vec)}
		if h.Len() < k {
			heap.Push(h, hit)
		} else if better(hit, (*h)[0]) {
			(*h)[0] = hit
			heap.Fix(h, 0)
		}
	}
	out := make([]Hit, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Hit)
	}
	return out
}

func better(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}
