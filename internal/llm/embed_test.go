package llm

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// variedText has 600 distinct terms with frequencies 1–7, so most of the
// EmbedDim buckets receive three or more terms of unequal weight: the
// case where the order of a float sum shows in its result.
func variedText() string {
	var b strings.Builder
	for i := 0; i < 600; i++ {
		for k := 0; k <= i%7; k++ {
			fmt.Fprintf(&b, "zq%dx ", i)
		}
	}
	return b.String()
}

func TestEmbedVectorBitIdentical(t *testing.T) {
	text := variedText()
	want := EmbedVector(text)
	for call := 0; call < 200; call++ {
		got := EmbedVector(text)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("call %d: vec[%d] = %x, want %x", call, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

func TestFNV1aMatchesHashFNV(t *testing.T) {
	for _, s := range []string{"", "a", "cancer", "colorectal", "ünïcödé", strings.Repeat("xyz", 50)} {
		h := fnv.New64a()
		_, _ = h.Write([]byte(s))
		if got, want := fnv1a(s), h.Sum64(); got != want {
			t.Errorf("fnv1a(%q) = %x, want %x", s, got, want)
		}
	}
}

func TestEmbedMemoSharesAndCharges(t *testing.T) {
	svc := NewService()
	text := "colorectal cancer gene mutation study"
	v1, r1, err := svc.Embed("atlas-embed", text)
	if err != nil {
		t.Fatal(err)
	}
	v2, r2, err := svc.Embed("atlas-embed", text)
	if err != nil {
		t.Fatal(err)
	}
	if &v1[0] != &v2[0] {
		t.Error("second Embed of the same text recomputed the vector")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("responses differ: %+v vs %+v", *r1, *r2)
	}
	u := svc.Usage()["atlas-embed"]
	if u.Calls != 2 || u.InputTokens != 2*r1.InputTokens || u.CostUSD != 2*r1.CostUSD || u.Latency != 2*r1.Latency {
		t.Errorf("usage %+v, want two full charges of %+v", u, *r1)
	}
	want := EmbedVector(text)
	for i := range want {
		if math.Float64bits(v1[i]) != math.Float64bits(want[i]) {
			t.Fatalf("memoized vec[%d] = %v, want %v", i, v1[i], want[i])
		}
	}
}

func TestEmbedMemoBounded(t *testing.T) {
	svc := NewService()
	text := func(i int) string { return fmt.Sprintf("document %d about colorectal cancer", i) }
	n := memoBytes/(EmbedDim*8) + 100
	for i := 0; i < n; i++ {
		if _, _, err := svc.Embed("atlas-embed", text(i)); err != nil {
			t.Fatal(err)
		}
	}
	m := svc.embeds
	st := m.Stats()
	if st.Size > memoBytes {
		t.Fatalf("memo holds %d bytes, bound %d", st.Size, memoBytes)
	}
	if st.Len*(EmbedDim*8+8) != st.Size {
		t.Fatalf("memo has %d vectors, %d bytes counted", st.Len, st.Size)
	}
	if _, ok := m.Get(fnv1a(text(0))); ok {
		t.Error("oldest entry was not evicted")
	}
	if _, ok := m.Get(fnv1a(text(n - 1))); !ok {
		t.Error("newest entry is missing")
	}
	// An entry keeps no text alive, so a text larger than the memo is
	// memoized at its vector's size.
	big := strings.Repeat("colorectal ", memoBytes/10)
	if _, _, err := svc.Embed("atlas-embed", big); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(fnv1a(big)); !ok || m.Stats().Size > memoBytes {
		t.Errorf("a large text's vector was not memoized within the bound (%d bytes held)", m.Stats().Size)
	}
}

// TestEmbedMemoKeepsHotEntry: a text embedded again between each of more
// one-shot texts than the memo holds keeps its vector, because the memo
// evicts the least recently used entry, not the oldest.
func TestEmbedMemoKeepsHotEntry(t *testing.T) {
	svc := NewService()
	const hot = "urgent ticket about a failed payment"
	first, _, err := svc.Embed("atlas-embed", hot)
	if err != nil {
		t.Fatal(err)
	}
	n := memoBytes/(EmbedDim*8) + 100
	for i := 0; i < n; i++ {
		if _, _, err := svc.Embed("atlas-embed", fmt.Sprintf("one-shot document %d", i)); err != nil {
			t.Fatal(err)
		}
		vec, _, err := svc.Embed("atlas-embed", hot)
		if err != nil {
			t.Fatal(err)
		}
		if &vec[0] != &first[0] {
			t.Fatalf("the hot text's vector was recomputed after %d one-shot texts", i+1)
		}
	}
}

func TestEmbedMemoConcurrent(t *testing.T) {
	svc := NewService()
	texts := []string{"colorectal cancer", "mortgage refinancing", variedText(), "urgent ticket"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				text := texts[(g+i)%len(texts)]
				vec, _, err := svc.Embed("atlas-embed", text)
				if err != nil {
					t.Error(err)
					return
				}
				want := EmbedVector(text)
				for k := range want {
					if math.Float64bits(vec[k]) != math.Float64bits(want[k]) {
						t.Errorf("%q: vec[%d] = %v, want %v", text, k, vec[k], want[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := svc.Usage()["atlas-embed"].Calls; got != 8*50 {
		t.Errorf("calls = %d, want %d", got, 8*50)
	}
}

func TestEmbedHitAllocations(t *testing.T) {
	svc := NewService()
	text := benchText(0)
	if _, _, err := svc.Embed("atlas-embed", text); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, _, _ = svc.Embed("atlas-embed", text)
	})
	if allocs > 1 {
		t.Errorf("memo hit allocates %v times, want only the *Response", allocs)
	}
}

// benchText is a support-ticket-sized document, distinct for each i.
func benchText(i int) string {
	return fmt.Sprintf("Ticket %d: The customer reports that the mobile app crashes on login "+
		"after the latest update. They were charged twice for the annual subscription "+
		"and want a refund. Steps tried: reinstalling, clearing the cache, resetting "+
		"the password. The account is a business plan with 40 seats; the outage blocks "+
		"their whole support team, so they are asking for an urgent escalation.", i)
}

func BenchmarkEmbed(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		svc := NewService()
		text := benchText(0)
		if _, _, err := svc.Embed("atlas-embed", text); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := svc.Embed("atlas-embed", text); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		svc := NewService()
		texts := make([]string, b.N)
		for i := range texts {
			texts[i] = benchText(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := svc.Embed("atlas-embed", texts[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
