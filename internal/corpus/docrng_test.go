package corpus

import (
	"math"
	"math/rand"
	"testing"
)

// The per-document RNG contract: DocRNG(seed, i) yields exactly the stream
// of rand.New(rand.NewSource(mix64(seed, i))), whether the source behind
// it is fresh or re-seeded in place through rand.Rand.Seed. These tests
// and FuzzDocRNG check that call for call against math/rand itself.

// rawSeeds reach every branch of math/rand's seed normalization: zero and
// the multiples of 2^31-1 (both normalize to 0 and take the fixed
// fallback seed), negative seeds, the int64 extremes, and the fallback
// seed itself.
var rawSeeds = []int64{
	0, 1, -1, 2, 89482311, -89482311,
	math.MaxInt32, -math.MaxInt32, 2 * math.MaxInt32, -3 * math.MaxInt32,
	math.MaxInt32 - 1, math.MaxInt32 + 1, 1 << 31, -(1 << 31),
	math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
	0x5DEECE66D, -0x7FFFFFFF00000001,
}

// drawCounts straddle the 607-word register: the first wrap of the feed
// and tap indices, the first values built from re-fed words, and well past
// a full cycle.
var drawCounts = []int{0, 1, 7, 273, 274, 333, 334, 335, 606, 607, 608, 900, 1213, 1214, 2000}

// opsFor is a deterministic mix of every call kind sameStream makes.
func opsFor(n int) []byte {
	ops := make([]byte, n)
	for k := range ops {
		ops[k] = byte(k*37 + k>>3)
	}
	return ops
}

// sameStream makes the same sequence of calls on got and want and fails
// at the first result that differs. Each op byte picks the call: Int63,
// Uint64, Intn over a small bound, Int63n over a large one, Float64, or a
// Shuffle of up to eight elements.
func sameStream(t *testing.T, label string, got, want *rand.Rand, ops []byte) {
	t.Helper()
	for k, op := range ops {
		var g, w any
		switch op % 6 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			n := int(op)/6 + 1
			g, w = got.Intn(n), want.Intn(n)
		case 3:
			n := int64(1)<<40 + int64(op)
			g, w = got.Int63n(n), want.Int63n(n)
		case 4:
			g, w = got.Float64(), want.Float64()
		case 5:
			a, b := [8]int{0, 1, 2, 3, 4, 5, 6, 7}, [8]int{0, 1, 2, 3, 4, 5, 6, 7}
			n := int(op) % 9
			got.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
			want.Shuffle(n, func(i, j int) { b[i], b[j] = b[j], b[i] })
			g, w = a, b
		}
		if g != w {
			t.Fatalf("%s: call %d (kind %d): got %v, want %v", label, k, op%6, g, w)
		}
	}
}

func TestDocRNGMatchesMathRand(t *testing.T) {
	ref := func(s int64) *rand.Rand { return rand.New(rand.NewSource(s)) }
	corpusSeeds := []int64{0, 7, -3, 42, math.MaxInt64, math.MinInt64}
	docs := []int{0, 1, 2, 606, 607, 24999, 1 << 20}

	// Fresh: one DocRNG per document, as outside callers use it.
	for _, seed := range corpusSeeds {
		for _, i := range docs {
			for _, n := range []int{1, 8, 700, 2000} {
				sameStream(t, "fresh", DocRNG(seed, i), ref(mix64(seed, i)), opsFor(n))
			}
		}
	}

	// Reused: one RNG re-seeded in place, across every raw seed and draw
	// count, so state left over from a longer stream cannot leak into the
	// next one.
	r := DocRNG(0, 0)
	for _, s := range rawSeeds {
		for _, n := range drawCounts {
			r.Seed(s)
			sameStream(t, "reseeded", r, ref(s), opsFor(n))
		}
	}
	for _, seed := range corpusSeeds {
		for _, i := range docs {
			r.Seed(mix64(seed, i))
			sameStream(t, "reseeded doc", r, ref(mix64(seed, i)), opsFor(2000))
		}
	}
}

// FuzzDocRNG checks the per-document RNG against math/rand for arbitrary
// corpus seeds, document indices, raw re-seed values and call mixes. Run
// longer with `go test -run '^$' -fuzz FuzzDocRNG ./internal/corpus`.
func FuzzDocRNG(f *testing.F) {
	for k, s := range rawSeeds {
		f.Add(s, k*97, s, opsFor(drawCounts[k%len(drawCounts)]))
	}
	f.Fuzz(func(t *testing.T, seed int64, i int, raw int64, ops []byte) {
		if len(ops) > 2000 {
			ops = ops[:2000]
		}
		sameStream(t, "fresh", DocRNG(seed, i), rand.New(rand.NewSource(mix64(seed, i))), ops)
		r := DocRNG(seed, i)
		r.Int63() // leave state behind for the re-seed to clear
		r.Seed(raw)
		sameStream(t, "reseeded", r, rand.New(rand.NewSource(raw)), ops)
	})
}

// TestIndexGeneratorReusesRNG checks that an index generator re-seeds one
// RNG in place: producing a document that makes draws allocates nothing
// beyond what the document function itself allocates.
func TestIndexGeneratorReusesRNG(t *testing.T) {
	doc := &Doc{}
	g := NewIndexGenerator("t", 1<<30, 7, func(rng *rand.Rand, i int) *Doc {
		for k := 0; k < 8; k++ {
			rng.Intn(1000)
		}
		return doc
	})
	if allocs := testing.AllocsPerRun(1000, func() { g.Next() }); allocs != 0 {
		t.Fatalf("Next allocates %.1f times per document; want 0", allocs)
	}
}
