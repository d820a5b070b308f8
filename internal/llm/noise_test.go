package llm

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"testing"
)

// joinedUnit is the noise draw as it was computed before keys were hashed
// from their parts: FNV-1a of the "|"-joined key string.
func joinedUnit(key string) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return float64(h.Sum64()%1_000_000) / 1_000_000
}

// FuzzNoiseKey checks that hashing a noise key from its parts draws
// exactly what hashing the joined key did, and that the stack-rendered
// digest and entity index are the bytes fmt rendered.
func FuzzNoiseKey(f *testing.F) {
	f.Add("filter", "atlas-large", "The papers are about colorectal cancer", "", uint8(4), uint64(0xcbf29ce484222325), 3)
	f.Add("ent", "pigeon-7b", "", "name|with|bars", uint8(5), uint64(0), 120)
	f.Add("", "", "", "", uint8(0), uint64(math.MaxUint64), -1)
	f.Fuzz(func(t *testing.T, a, b, c, d string, n uint8, digest uint64, idx int) {
		var hex [16]byte
		if got, want := string(strconv.AppendUint(hex[:0], digest, 16)), fmt.Sprintf("%x", digest); got != want {
			t.Fatalf("hex digest %q, fmt renders %q", got, want)
		}
		var ib [20]byte
		if got, want := string(strconv.AppendInt(ib[:0], int64(idx), 10)), fmt.Sprint(idx); got != want {
			t.Fatalf("index %q, fmt renders %q", got, want)
		}
		parts := []string{a, b, c, d, fmt.Sprintf("%x", digest), fmt.Sprint(idx)}
		parts = parts[:int(n)%(len(parts)+1)]
		got, want := unit(parts...), joinedUnit(strings.Join(parts, "|"))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("unit(%q) = %v, joined key draws %v", parts, got, want)
		}
	})
}
